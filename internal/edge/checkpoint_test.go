package edge

import (
	"path/filepath"
	"testing"
	"time"

	"pkgstream/internal/hotkey"
	"pkgstream/internal/rng"
	"pkgstream/internal/route"
	"pkgstream/internal/transport"
	"pkgstream/internal/wire"
)

// startWorkers spins up n counting workers on ephemeral loopback ports.
func startWorkers(t *testing.T, n int) ([]*transport.Worker, []string) {
	t.Helper()
	workers := make([]*transport.Worker, n)
	addrs := make([]string, n)
	for i := range workers {
		w, err := transport.ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		addrs[i] = w.Addr()
		t.Cleanup(func() { _ = w.Close() })
	}
	return workers, addrs
}

// skewedKeys returns a deterministic stream of n keys: key 1 with
// probability p, the rest uniform over [2, 2+tail).
func skewedKeys(n int, p float64, tail uint64, seed uint64) []uint64 {
	r := rng.NewStream(seed, 0)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = 1
		if r.Float64() >= p {
			keys[i] = 2 + r.Uint64()%tail
		}
	}
	return keys
}

func sendAll(t *testing.T, src *Wire, keys []uint64) {
	t.Helper()
	for _, k := range keys {
		if err := src.SendTuple(&wire.Tuple{KeyHash: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
}

func workerImbalance(ws []*transport.Worker) float64 {
	var max, sum int64
	for _, w := range ws {
		p := w.Processed()
		if p > max {
			max = p
		}
		sum += p
	}
	return float64(max) - float64(sum)/float64(len(ws))
}

// TestSketchCheckpointRestoresHeadClassification: a sender that
// checkpoints its Space-Saving sketch on Close and re-warms from the
// file on dial classifies a known head key as head from its very first
// message — the restarted sender never routes it cold.
func TestSketchCheckpointRestoresHeadClassification(t *testing.T) {
	const w, n = 12, 8192
	_, addrs := startWorkers(t, w)
	path := filepath.Join(t.TempDir(), "sketch.ckpt")
	opts := WireOptions{Mode: route.StrategyDChoices, Seed: 42, SketchPath: path}

	// First life: key 1 carries 70% — beyond the head threshold
	// dCap(1+ε)/W = 6·1.25/12 = 0.625 (adaptive dCap = ⌈W/2⌉).
	src1, err := DialWire(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	sendAll(t, src1, skewedKeys(n, 0.7, 500, 9))
	if got := len(src1.Candidates(1)); got != w {
		t.Fatalf("head key widened to %d candidates before restart, want %d", got, w)
	}
	if err := src1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: the restored classifier must be head-aware *before*
	// any observation.
	src2, err := DialWire(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	if got := len(src2.Candidates(1)); got != w {
		t.Fatalf("restarted source gives the head key %d candidates, want %d immediately", got, w)
	}
	sum, ok := src2.SketchSummary()
	if !ok || sum.N != n {
		t.Fatalf("restored sketch weight %d (ok=%v), want %d", sum.N, ok, n)
	}

	// A mode that keeps no sketch rejects a SketchPath.
	if _, err := DialWire(addrs, WireOptions{Mode: route.StrategyPKG, SketchPath: path}); err == nil {
		t.Fatal("SketchPath accepted for PKG")
	}

	// A restart WITHOUT the checkpoint routes the same key cold.
	cold, err := DialWire(addrs, WireOptions{Mode: route.StrategyDChoices, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if got := len(cold.Candidates(1)); got != 2 {
		t.Fatalf("fresh source gives the head key %d candidates, want 2", got)
	}
}

// TestRestartedSourceImbalanceWithin2x is the restart acceptance
// criterion: killing and restarting a D-Choices source mid-stream, with
// the sketch checkpointed across the restart, leaves the end-to-end
// worker imbalance within 2x of the uninterrupted run — and strictly
// better than the same restart without the checkpoint (which re-enters
// warmup and routes the head key over two workers until the sketch
// re-warms). Everything here is deterministic: one source goroutine,
// seeded streams.
func TestRestartedSourceImbalanceWithin2x(t *testing.T) {
	const (
		w    = 12
		n    = 40_000
		seed = 42
	)
	hot := hotkey.Config{Warmup: 4096, RefreshEvery: 1024}
	keys := skewedKeys(n, 0.4, 2_000, 7)

	run := func(sketchPath string, restart, restoreSecondLife bool) float64 {
		workers, addrs := startWorkers(t, w)
		opts := WireOptions{Mode: route.StrategyDChoices, Seed: seed, Hot: hot, SketchPath: sketchPath}
		src, err := DialWire(addrs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !restart {
			sendAll(t, src, keys)
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			sendAll(t, src, keys[:n/2])
			if err := src.Close(); err != nil { // checkpoints the sketch
				t.Fatal(err)
			}
			second := opts
			if !restoreSecondLife {
				second.SketchPath = ""
			}
			src2, err := DialWire(addrs, second)
			if err != nil {
				t.Fatal(err)
			}
			sendAll(t, src2, keys[n/2:])
			if err := src2.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := waitTotal(workers, n, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		return workerImbalance(workers)
	}

	dir := t.TempDir()
	uninterrupted := run(filepath.Join(dir, "a.ckpt"), false, false)
	restored := run(filepath.Join(dir, "b.ckpt"), true, true)
	amnesiac := run(filepath.Join(dir, "c.ckpt"), true, false)

	t.Logf("imbalance: uninterrupted %.0f, restart+restore %.0f, restart cold %.0f",
		uninterrupted, restored, amnesiac)
	if restored > 2*uninterrupted {
		t.Fatalf("restored restart imbalance %.0f exceeds 2x uninterrupted %.0f",
			restored, uninterrupted)
	}
	if restored >= amnesiac {
		t.Fatalf("sketch restore did not help: restored %.0f ≥ cold restart %.0f",
			restored, amnesiac)
	}
}
