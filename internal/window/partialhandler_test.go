package window

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pkgstream/internal/engine"
	"pkgstream/internal/transport"
	"pkgstream/internal/wire"
)

// buildPartialNodes spins up `nodes` hosted partial stages forwarding
// to the given final addresses, returning their handlers and addresses.
func buildPartialNodes(t *testing.T, nodes int, faddrs []string) ([]*PartialHandler, []string) {
	t.Helper()
	handlers := make([]*PartialHandler, nodes)
	addrs := make([]string, nodes)
	for i := range handlers {
		plan := MustPlan(Count{}, remoteSpec())
		h, err := plan.NewPartialHandler(PartialHandlerOptions{
			ID: i, Nodes: nodes, FinalAddrs: faddrs, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		w, err := transport.ListenHandler("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		handlers[i] = h
		addrs[i] = w.Addr()
	}
	return handlers, addrs
}

// startFinals spins up n hosted final stages fed by `sources` partial
// nodes; node 0's partial dispatch is slowed by slowFirst (0: none).
func startFinals(t *testing.T, n, sources int, slowFirst time.Duration) ([]*FinalHandler, []string) {
	t.Helper()
	finals := make([]*FinalHandler, n)
	faddrs := make([]string, n)
	for i := range finals {
		plan := MustPlan(Count{}, remoteSpec())
		h, err := plan.NewFinalHandler(sources)
		if err != nil {
			t.Fatal(err)
		}
		var hh transport.Handler = h
		if i == 0 {
			hh = transport.Slow(h, slowFirst)
		}
		w, err := transport.ListenHandler("127.0.0.1:0", hh)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		finals[i] = h
		faddrs[i] = w.Addr()
	}
	return finals, faddrs
}

// runRemotePartial runs the full three-stage shape with BOTH windowed
// stages out of process: engine spouts (rtSpouts instances of
// wordSpout{n: perSpout, vocab: vocab}) → wire tuples → hosted
// partials → wire partials → hosted finals, all across TCP loopback.
func runRemotePartial(t *testing.T, perSpout, vocab int, partials []*PartialHandler, paddrs []string, finals []*FinalHandler) map[string]int64 {
	t.Helper()
	plan := MustPlan(Count{}, remoteSpec())
	b := engine.NewBuilder("rt-remote-partial", 42)
	b.AddSpout("words", func() engine.Spout {
		return &wordSpout{n: perSpout, marks: 500, vocab: vocab}
	}, rtSpouts)
	b.WindowedAggregate("wc", plan, rtPartials, engine.RemotePartial(paddrs...)).
		Input("words", SourceAware(engine.Partial()))
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := engine.NewRuntime(top, engine.Options{})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats().EdgeTotals("wc.partial"); st.Failures != 0 {
		t.Fatalf("tuple edge failures: %+v", st)
	}

	var absorbed int64
	for i, h := range partials {
		if err := h.WaitDone(10 * time.Second); err != nil {
			t.Fatalf("partial node %d: %v", i, err)
		}
		if h.BadFrames() != 0 {
			t.Fatalf("partial node %d: %d bad frames", i, h.BadFrames())
		}
		absorbed += h.Processed()
	}
	if want := int64(rtSpouts * perSpout); absorbed != want {
		t.Fatalf("partial nodes absorbed %d tuples, want %d — the flow-controlled edge dropped or duplicated", absorbed, want)
	}

	got := map[string]int64{}
	for i, h := range finals {
		if err := h.WaitDone(10 * time.Second); err != nil {
			t.Fatalf("final node %d: %v", i, err)
		}
		if h.BadFrames() != 0 {
			t.Fatalf("final node %d: %d bad frames", i, h.BadFrames())
		}
		for _, res := range h.Results() {
			got[fmt.Sprintf("%s@%d", res.Key, res.Start)] += res.Value
		}
	}
	return got
}

// TestRemotePartialMatchesInProcess is the PR 5 tentpole gate: the full
// spout → wire → remote partial → remote final pipeline produces
// IDENTICAL per-(word, window) counts to the in-process engine — and
// both match the independently replayed truth.
func TestRemotePartialMatchesInProcess(t *testing.T) {
	want := expectedCounts(rtSpouts, rtPerSpout, rtSize, 0)
	local := runInProcess(t, rtSpout)
	diffCounts(t, "in-process", local, want)
	finals, faddrs := startFinals(t, 2, 2, 0)
	partials, paddrs := buildPartialNodes(t, 2, faddrs)
	remote := runRemotePartial(t, rtPerSpout, 0, partials, paddrs, finals)
	diffCounts(t, "remote-partial vs truth", remote, want)
	diffCounts(t, "remote-partial vs in-process", remote, local)
}

// TestFinalHopCreditStallsPartialNode: the partial → final hop is a
// credit-flow-controlled edge. A final node slowed by transport.Slow
// exhausts its window, so the partial nodes' senders stall on credit
// (never more than Window partials in flight), and the counts still
// match the in-process engine exactly.
func TestFinalHopCreditStallsPartialNode(t *testing.T) {
	// A wide vocabulary makes every flush ship hundreds of partials per
	// final node (about 2000 to the slow one over the run), so the slow
	// node falls well over its 1024-partial window behind.
	const perSpout, vocab = 2500, 5000
	local := runInProcess(t, func() engine.Spout {
		return &wordSpout{n: perSpout, marks: 500, vocab: vocab}
	})
	finals, faddrs := startFinals(t, 2, 1, 50*time.Microsecond)
	partials, paddrs := buildPartialNodes(t, 1, faddrs)

	// Sample the edges while the pipeline runs: in-flight partials must
	// never exceed the credit window.
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		var maxInFlight int64
		for {
			for i, h := range partials {
				if st := h.EdgeStats(); st.InFlight > st.Window {
					sampled <- fmt.Errorf("partial node %d: %d partials in flight over a %d window", i, st.InFlight, st.Window)
					return
				} else if st.InFlight > maxInFlight {
					maxInFlight = st.InFlight
				}
			}
			select {
			case <-stop:
				t.Logf("max partials in flight: %d", maxInFlight)
				sampled <- nil
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	remote := runRemotePartial(t, perSpout, vocab, partials, paddrs, finals)
	close(stop)
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
	diffCounts(t, "slow final vs in-process", remote, local)
	for i, h := range partials {
		st := h.EdgeStats()
		t.Logf("partial node %d: %+v", i, st)
		if st.Stalls == 0 {
			t.Fatalf("partial node %d never stalled on the slow final node: %+v", i, st)
		}
		if st.Window == 0 || st.InFlight > st.Window {
			t.Fatalf("partial node %d: in flight %d, window %d", i, st.InFlight, st.Window)
		}
	}
}

// gatedTuples wraps a handler, blocking every tuple on the gate — the
// deliberately slowed partial worker of the backpressure gate.
type gatedTuples struct {
	transport.Handler
	gate chan struct{}
}

func (g *gatedTuples) HandleTuple(t *wire.Tuple) {
	<-g.gate
	g.Handler.HandleTuple(t)
}

// TestRemotePartialBackpressure is the acceptance regression test: a
// deliberately stalled partial worker must stall the SPOUT through the
// credit window and the engine's bounded queues — bounded in-flight
// tuples, no unbounded buffering, no drops — and the stream must finish
// exactly once the worker resumes.
func TestRemotePartialBackpressure(t *testing.T) {
	const total = 30_000
	const window, queue = 16, 128
	fplan := MustPlan(Count{}, remoteSpec())
	fh, err := fplan.NewFinalHandler(1)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := transport.ListenHandler("127.0.0.1:0", fh)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()

	pplan := MustPlan(Count{}, Spec{Size: rtSize, EveryTuples: 1500, Sources: 1})
	ph, err := pplan.NewPartialHandler(PartialHandlerOptions{
		ID: 0, Nodes: 1, FinalAddrs: []string{fw.Addr()}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	pw, err := transport.ListenHandler("127.0.0.1:0", &gatedTuples{Handler: ph, gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()

	plan := MustPlan(Count{}, Spec{Size: rtSize, EveryTuples: 1500, Sources: 1})
	b := engine.NewBuilder("bp", 7)
	b.AddSpout("words", func() engine.Spout {
		return &wordSpout{n: total, marks: 500}
	}, 1)
	b.WindowedAggregate("wc", plan, 1, engine.RemotePartialOpts(engine.RemotePartialConfig{
		Addrs: []string{pw.Addr()}, Window: window,
	})).Input("words", SourceAware(engine.Partial()))
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := engine.NewRuntime(top, engine.Options{QueueSize: queue, BatchSize: 16})
	runDone := make(chan error, 1)
	go func() { runDone <- rt.Run() }()

	// With the worker gated, the whole pipeline must clog: credit
	// window (16 frames on the wire edge), the forwarder's bounded
	// queue (128 tuples), and the emit-side batch buffers. The spout's
	// emitted count has to plateau far below the stream length.
	var plateau int64
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := rt.Stats().TotalExecuted("wc.partial") // tuples the forwarder pulled
		emitted := rt.Stats().PerInstance["words"][0].Emitted
		if emitted == plateau && emitted > 0 && cur > 0 {
			break // two consecutive identical samples: stalled
		}
		plateau = emitted
		if time.Now().After(deadline) {
			t.Fatalf("spout never stalled (emitted %d)", emitted)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Generous bound: window + queue + batching slack on both edges is
	// a few hundred tuples; a leak (unbounded TCP buffering) would sit
	// in the tens of thousands.
	if plateau > 2_000 {
		t.Fatalf("spout emitted %d tuples against a stalled worker — backpressure is not reaching it", plateau)
	}
	if st := rt.Stats().EdgeTotals("wc.partial"); st.Stalls == 0 {
		t.Fatalf("no credit stalls recorded on the tuple edge: %+v", st)
	}
	select {
	case err := <-runDone:
		t.Fatalf("topology finished against a stalled worker: %v", err)
	default:
	}

	// Resume: everything must drain, exactly once.
	close(gate)
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	if err := ph.WaitDone(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ph.Processed(); got != total {
		t.Fatalf("partial node absorbed %d/%d tuples after resume", got, total)
	}
	if err := fh.WaitDone(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, res := range fh.Results() {
		sum += res.Value
	}
	if sum != total {
		t.Fatalf("final node counted %d/%d tuples", sum, total)
	}
}

// pausingSpout is a wordSpout that parks halfway until resume closes —
// so a test can restart a node strictly BETWEEN the two halves of the
// stream, deterministically.
type pausingSpout struct {
	wordSpout
	pauseAt int
	resume  chan struct{}
}

func (s *pausingSpout) Next(out engine.Emitter) bool {
	if s.i == s.pauseAt {
		<-s.resume
	}
	return s.wordSpout.Next(out)
}

// TestRemoteFinalSurvivesNodeRestart: the forwarder's bounded-backoff
// retry rides out a final node restarting mid-stream — the topology
// completes instead of panicking on the first broken pipe, and the
// retries surface in Stats.Edges.
func TestRemoteFinalSurvivesNodeRestart(t *testing.T) {
	plan0 := MustPlan(Count{}, remoteSpec())
	h0, err := plan0.NewFinalHandler(rtPartials)
	if err != nil {
		t.Fatal(err)
	}
	w0, err := transport.ListenHandler("127.0.0.1:0", h0)
	if err != nil {
		t.Fatal(err)
	}
	addr := w0.Addr()

	resume := make(chan struct{})
	plan := MustPlan(Count{}, remoteSpec())
	b := engine.NewBuilder("rt-restart", 42)
	b.AddSpout("words", func() engine.Spout {
		return &pausingSpout{
			wordSpout: wordSpout{n: rtPerSpout, marks: 500},
			pauseAt:   rtPerSpout / 2, resume: resume,
		}
	}, rtSpouts)
	b.WindowedAggregate("wc", plan, rtPartials, engine.RemoteFinal(addr)).
		Input("words", SourceAware(engine.Partial()))
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := engine.NewRuntime(top, engine.Options{})
	runDone := make(chan error, 1)
	go func() { runDone <- rt.Run() }()

	// First half flows to the original node; with the spouts parked,
	// kill it and stand a fresh one up on the same address, then
	// release the second half — every send from here on rides the
	// retry path at least once.
	deadline := time.Now().Add(10 * time.Second)
	for h0.Stats().Merged == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no partials reached the node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = w0.Close()
	plan1 := MustPlan(Count{}, remoteSpec())
	h1, err := plan1.NewFinalHandler(rtPartials)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := transport.ListenHandler(addr, h1)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer w1.Close()
	close(resume)

	if err := <-runDone; err != nil {
		t.Fatalf("topology failed across a node restart: %v", err)
	}
	if st := rt.Stats().EdgeTotals("wc"); st.Retries == 0 || st.Failures != 0 {
		t.Fatalf("edge stats across restart: %+v (want retries > 0, no failures)", st)
	}
	// The replacement node must still reach Done: every partial
	// instance's final mark was (re)delivered after the restart.
	if err := h1.WaitDone(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteFinalFailsCleanlyWhenNodeDies: with the node gone for good,
// retries exhaust and the topology fails CLEANLY — Run returns (no
// hang, no crash) with the typed *engine.EdgeError naming the edge.
func TestRemoteFinalFailsCleanlyWhenNodeDies(t *testing.T) {
	plan0 := MustPlan(Count{}, remoteSpec())
	h0, err := plan0.NewFinalHandler(rtPartials)
	if err != nil {
		t.Fatal(err)
	}
	w0, err := transport.ListenHandler("127.0.0.1:0", h0)
	if err != nil {
		t.Fatal(err)
	}
	addr := w0.Addr()

	resume := make(chan struct{})
	plan := MustPlan(Count{}, remoteSpec())
	b := engine.NewBuilder("rt-dead", 42)
	b.AddSpout("words", func() engine.Spout {
		return &pausingSpout{
			wordSpout: wordSpout{n: rtPerSpout, marks: 500},
			pauseAt:   rtPerSpout / 2, resume: resume,
		}
	}, rtSpouts)
	b.WindowedAggregate("wc", plan, rtPartials, engine.RemoteFinal(addr)).
		Input("words", SourceAware(engine.Partial()))
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := engine.NewRuntime(top, engine.Options{})
	runDone := make(chan error, 1)
	go func() { runDone <- rt.Run() }()

	deadline := time.Now().Add(10 * time.Second)
	for h0.Stats().Merged == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no partials reached the node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = w0.Close() // and nothing comes back
	close(resume)

	select {
	case err := <-runDone:
		var ee *engine.EdgeError
		if !errors.As(err, &ee) {
			t.Fatalf("run error %v (%T) is not an *engine.EdgeError", err, err)
		}
		if ee.Addr != addr || ee.Attempts != 4 {
			t.Fatalf("edge error %+v, want addr %s after 4 attempts", ee, addr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("topology hung on a dead node")
	}
	if st := rt.Stats().EdgeTotals("wc"); st.Failures == 0 {
		t.Fatalf("no failure recorded: %+v", st)
	}
}

// TestSubscribePushMatchesDrain: a push subscription delivers exactly
// the results the paged drain does — subscribed BEFORE the stream
// finishes (live pushes as windows close) and after (pure backlog).
func TestSubscribePushMatchesDrain(t *testing.T) {
	plan := MustPlan(Count{}, remoteSpec())
	h, err := plan.NewFinalHandler(rtPartials)
	if err != nil {
		t.Fatal(err)
	}
	w, err := transport.ListenHandler("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Subscribe before any data exists: this session sees live pushes.
	type subResult struct {
		res []wire.WindowResult
		err error
	}
	live := make(chan subResult, 1)
	go func() {
		res, err := transport.SubscribeResults(w.Addr(), 30*time.Second)
		live <- subResult{res, err}
	}()

	plan2 := MustPlan(Count{}, remoteSpec())
	b := engine.NewBuilder("rt-push", 42)
	b.AddSpout("words", func() engine.Spout {
		return &wordSpout{n: rtPerSpout, marks: 500}
	}, rtSpouts)
	b.WindowedAggregate("wc", plan2, rtPartials, engine.RemoteFinal(w.Addr())).
		Input("words", SourceAware(engine.Partial()))
	top, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.NewRuntime(top, engine.Options{}).Run(); err != nil {
		t.Fatal(err)
	}

	drained, err := transport.DrainResults(w.Addr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lr := <-live
	if lr.err != nil {
		t.Fatal(lr.err)
	}
	// A late subscription sees the same thing as pure backlog.
	after, err := transport.SubscribeResults(w.Addr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(rs []wire.WindowResult) map[string]int64 {
		m := map[string]int64{}
		for _, r := range rs {
			m[fmt.Sprintf("%s@%d", r.Key, r.Start)] += r.Value
		}
		return m
	}
	want := sum(drained)
	diffCounts(t, "live subscription", sum(lr.res), want)
	diffCounts(t, "late subscription", sum(after), want)
	if len(lr.res) != len(drained) || len(after) != len(drained) {
		t.Fatalf("result counts: live %d, late %d, drained %d", len(lr.res), len(after), len(drained))
	}
}
