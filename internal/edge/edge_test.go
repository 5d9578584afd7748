package edge

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pkgstream/internal/route"
	"pkgstream/internal/transport"
	"pkgstream/internal/wire"
)

func TestLocalEdgeDelivery(t *testing.T) {
	e := NewLocal[int](2, 4)
	if e.Instances() != 2 {
		t.Fatalf("instances = %d", e.Instances())
	}
	if err := e.Send(0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.Send(1, []int{3}); err != nil {
		t.Fatal(err)
	}
	if err := e.Watermark(0, 99); err != nil {
		t.Fatal(err) // in-band: no-op, never an error
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e.CloseRecv()
	var got []int
	for b := range e.Recv(0) {
		got = append(got, b...)
	}
	for b := range e.Recv(1) {
		got = append(got, b...)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("received %v", got)
	}
}

func TestLocalEdgeSendUnlessDone(t *testing.T) {
	e := NewLocal[int](1, 1)
	done := make(chan struct{})
	if !e.SendUnlessDone(0, []int{1}, done) {
		t.Fatal("send into empty queue abandoned")
	}
	// The queue is full; a closed done channel must win the race.
	close(done)
	if e.SendUnlessDone(0, []int{2}, done) {
		t.Fatal("send into full queue delivered after done")
	}
}

// gatedHandler blocks every tuple on the gate — the deliberately slowed
// worker of the credit-stall regression test. It implements only the
// base Handler (no HandleTupleBatch), so the worker unrolls batch
// frames into per-tuple calls and the gate still bites tuple by tuple.
type gatedHandler struct {
	gate    chan struct{}
	handled atomic.Int64
}

func (h *gatedHandler) HandleTuple(*wire.Tuple) {
	<-h.gate
	h.handled.Add(1)
}
func (h *gatedHandler) HandlePartial(*wire.Partial)         {}
func (h *gatedHandler) HandleMark(wire.Mark)                {}
func (h *gatedHandler) HandleQuery(q wire.Query) wire.Reply { return wire.Reply{Op: q.Op} }

// TestWireEdgeCreditStall is the flow-control regression gate: a slowed
// worker must stall the sender at exactly Window in-flight TUPLES —
// bounded buffering, no drops — and everything must drain once the
// worker resumes. The unbatched subtest pins the pre-batch per-frame
// semantics; the batched subtest uses a batch size that does not
// divide the window, so the boundary lands mid-batch and the edge must
// split the batch into sub-frames rather than overshoot by even one
// tuple.
func TestWireEdgeCreditStall(t *testing.T) {
	for _, tc := range []struct {
		name       string
		batch      int
		wantFrames int64 // frames sent at the stall point
	}{
		// 8 per-tuple frames in flight at the stall.
		{name: "unbatched", batch: 1, wantFrames: 8},
		// Batches of 3: two full frames (6 tuples), then the third
		// batch straddles the window and ships a 2-tuple sub-frame.
		{name: "batched-straddle", batch: 3, wantFrames: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const window, total = 8, 100
			h := &gatedHandler{gate: make(chan struct{})}
			w, err := transport.ListenHandler("127.0.0.1:0", h)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			e, err := DialWire([]string{w.Addr()}, WireOptions{
				Seed: 7, Window: window, MaxBatchTuples: tc.batch,
			})
			if err != nil {
				t.Fatal(err)
			}

			sendErr := make(chan error, 1)
			go func() {
				tup := wire.Tuple{}
				for i := 0; i < total; i++ {
					tup.KeyHash = uint64(i + 1)
					if err := e.SendTuple(&tup); err != nil {
						sendErr <- err
						return
					}
				}
				sendErr <- e.Flush()
			}()

			// The sender must reach the window and then stall there: with
			// the worker gated, not one tuple beyond the window may leave.
			deadline := time.Now().Add(5 * time.Second)
			for e.SentTuples() < window {
				if time.Now().After(deadline) {
					t.Fatalf("sender reached only %d/%d tuples", e.SentTuples(), window)
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(100 * time.Millisecond)
			if got := e.SentTuples(); got != window {
				t.Fatalf("gated worker: %d tuples in flight, want exactly the window %d", got, window)
			}
			if got := e.Sent(); got != tc.wantFrames {
				t.Fatalf("gated worker: %d frames sent, want %d", got, tc.wantFrames)
			}
			select {
			case err := <-sendErr:
				t.Fatalf("sender finished while the worker was gated: %v", err)
			default:
			}

			// Resume the worker: credits replenish and everything drains.
			close(h.gate)
			if err := <-sendErr; err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := w.WaitProcessed(total, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.Stalls == 0 {
				t.Fatal("no stalls recorded — the send path never saw backpressure")
			}
			if st.Tuples != total {
				t.Fatalf("tuples = %d, want %d", st.Tuples, total)
			}
			if tc.batch == 1 && st.Frames != total {
				t.Fatalf("unbatched frames = %d, want %d", st.Frames, total)
			}
			if tc.batch > 1 && st.Frames >= st.Tuples {
				t.Fatalf("batched run shipped %d frames for %d tuples — no batching happened", st.Frames, st.Tuples)
			}
			if st.Failures != 0 || st.Retries != 0 {
				t.Fatalf("unexpected retries/failures: %+v", st)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// seqRecorder records the KeyHash arrival order. While gated, tuples
// block; closing abort makes blocked (and subsequent) tuples drop
// unrecorded — a worker that dies mid-batch without absorbing what was
// in flight.
type seqRecorder struct {
	gate  chan struct{} // nil: record immediately
	abort chan struct{}

	mu  sync.Mutex
	seq []uint64
}

func (h *seqRecorder) HandleTuple(t *wire.Tuple) {
	if h.gate != nil {
		select {
		case <-h.gate:
		case <-h.abort:
			return
		}
	}
	h.mu.Lock()
	h.seq = append(h.seq, t.KeyHash)
	h.mu.Unlock()
}
func (h *seqRecorder) HandlePartial(*wire.Partial)         {}
func (h *seqRecorder) HandleMark(wire.Mark)                {}
func (h *seqRecorder) HandleQuery(q wire.Query) wire.Reply { return wire.Reply{Op: q.Op} }

func (h *seqRecorder) snapshot() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.seq...)
}

// TestWireEdgeBatchFIFOAcrossRedial: the sender stalls mid-batch on a
// gated worker, the worker dies, and a replacement comes up on the
// same address. The edge must redial, resend the pending sub-frame,
// and finish the stream — with the replacement observing a strictly
// increasing key sequence (per-destination FIFO holds across the
// stall/redial even though the batch was split around it).
func TestWireEdgeBatchFIFOAcrossRedial(t *testing.T) {
	const window, batch, total = 8, 3, 50
	h1 := &seqRecorder{gate: make(chan struct{}), abort: make(chan struct{})}
	w1, err := transport.ListenHandler("127.0.0.1:0", h1)
	if err != nil {
		t.Fatal(err)
	}
	addr := w1.Addr()
	e, err := DialWire([]string{addr}, WireOptions{
		Seed: 5, Window: window, MaxBatchTuples: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sendErr := make(chan error, 1)
	go func() {
		tup := wire.Tuple{}
		for i := 1; i <= total; i++ {
			tup.KeyHash = uint64(i)
			if err := e.SendTuple(&tup); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- e.Flush()
	}()

	// Wait for the mid-batch stall: 3+3 tuples in two full frames, then
	// a 2-tuple sub-frame exhausts the window with one tuple pending.
	deadline := time.Now().Add(5 * time.Second)
	for e.SentTuples() < window {
		if time.Now().After(deadline) {
			t.Fatalf("sender reached only %d/%d tuples", e.SentTuples(), window)
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the gated worker mid-batch and bring an ungated replacement
	// up on the address. The connection drops while the handler is
	// still gated, and the handler is released (its blocked tuples drop
	// unrecorded) only once the sender has seen the drop: released
	// first, the old worker could absorb and ack the whole stream
	// before its connection closed, and nothing would reach the
	// replacement.
	closed := make(chan error, 1)
	go func() { closed <- w1.Close() }()
	deadline = time.Now().Add(5 * time.Second)
	for !connBroken(e, 0) {
		if time.Now().After(deadline) {
			t.Fatal("sender never saw the worker's connection drop")
		}
		time.Sleep(time.Millisecond)
	}
	close(h1.abort)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	h2 := &seqRecorder{}
	w2, err := transport.ListenHandler(addr, h2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// The stream's tail must land on the replacement, in order.
	deadline = time.Now().Add(10 * time.Second)
	for {
		seq := h2.snapshot()
		if len(seq) > 0 && seq[len(seq)-1] == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replacement saw %v, never the final tuple (edge stats %+v)", seq, e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	seq := h2.snapshot()
	for i := 1; i < len(seq); i++ {
		if seq[i] <= seq[i-1] {
			t.Fatalf("FIFO violated across redial: %v", seq)
		}
	}
	if st := e.Stats(); st.Retries == 0 {
		t.Fatalf("no retries recorded across the restart: %+v", st)
	}
}

// connBroken reports whether the ack reader of e's connection to dst
// has seen that connection break.
func connBroken(e *Wire, dst int) bool {
	e.csMu.Lock()
	c := e.cs[dst]
	e.csMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// TestWireFlushCloseNilConnGuard: a nil connection slot (a redial in
// flight, or a connect failure left mid-dial) must not panic Flush —
// the guard Close always had — and a send toward the empty slot
// redials instead of dereferencing it.
func TestWireFlushCloseNilConnGuard(t *testing.T) {
	w, err := transport.ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	e, err := DialWire([]string{w.Addr()}, WireOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.cs[0].conn.Close()
	e.cs[0] = nil
	if err := e.Flush(); err != nil {
		t.Fatalf("flush with a nil slot: %v", err)
	}
	if err := e.SendTuple(&wire.Tuple{KeyHash: 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush after redial: %v", err)
	}
	if err := w.WaitProcessed(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	e.cs[0] = nil // leave the slot empty again: Close must skip it
	if err := e.Close(); err != nil {
		t.Fatalf("close with a nil slot: %v", err)
	}
}

// TestWireEdgeRoutesWithinProbeSet: tuples land only on their candidate
// nodes, and the probe set the edge reports covers them — the property
// distributed point queries rely on.
func TestWireEdgeRoutesWithinProbeSet(t *testing.T) {
	var ws []*transport.Worker
	var addrs []string
	for i := 0; i < 4; i++ {
		w, err := transport.ListenWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		ws = append(ws, w)
		addrs = append(addrs, w.Addr())
	}
	e, err := DialWire(addrs, WireOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const perKey, keys = 50, 20
	tup := wire.Tuple{}
	for k := 1; k <= keys; k++ {
		for i := 0; i < perKey; i++ {
			tup.KeyHash = uint64(k) * 0x9e3779b97f4a7c15
			if err := e.SendTuple(&tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	total := int64(perKey * keys)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sum int64
		for _, w := range ws {
			sum += w.Processed()
		}
		if sum >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers absorbed %d/%d", sum, total)
		}
		time.Sleep(time.Millisecond)
	}
	for k := 1; k <= keys; k++ {
		key := uint64(k) * 0x9e3779b97f4a7c15
		cands := e.Candidates(key)
		if len(cands) != 2 {
			t.Fatalf("key %d: %d candidates under PKG, want 2", k, len(cands))
		}
		inSet := map[int]bool{}
		for _, c := range cands {
			inSet[c] = true
		}
		var covered int64
		for i, w := range ws {
			if c := w.Count(key); c > 0 {
				if !inSet[i] {
					t.Fatalf("key %d: %d tuples on node %d outside probe set %v", k, c, i, cands)
				}
				covered += c
			}
		}
		if covered != perKey {
			t.Fatalf("key %d: probe set covers %d/%d tuples", k, covered, perKey)
		}
	}
	if ll := e.LocalLoads(); len(ll) != 4 {
		t.Fatalf("local loads = %v", ll)
	}
}

// TestWireEdgeReconnects: a vanished node is redialed with backoff and
// the edge keeps delivering — the first slice of node-failure handling.
func TestWireEdgeReconnects(t *testing.T) {
	w, err := transport.ListenWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := w.Addr()
	e, err := DialWire([]string{addr}, WireOptions{Seed: 3, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	tup := wire.Tuple{KeyHash: 11}
	for i := 0; i < 5; i++ {
		if err := e.SendTuple(&tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitProcessed(5, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Kill the node, then bring a fresh one up on the same address.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := transport.ListenWorker(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	// A watermark broadcast straddling the restart rides the redial
	// path too — marks are re-deliverable promises, and a restart
	// landing between two marks must not kill the edge.
	if err := e.Watermark(0, 100); err != nil {
		t.Fatalf("watermark across restart: %v", err)
	}

	// Sends ride the redial path (the reader marked the connection
	// broken); everything sent after the restart must reach the new
	// node.
	deadline := time.Now().Add(10 * time.Second)
	sent := int64(0)
	for w2.Processed() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("replacement node absorbed %d frames (edge stats %+v)", w2.Processed(), e.Stats())
		}
		if err := e.SendTuple(&tup); err != nil {
			t.Fatal(err)
		}
		sent++
		if err := e.Flush(); err != nil {
			// A flush straddling the crash may fail once; the next
			// SendTuple redials.
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := e.Stats(); st.Retries == 0 {
		t.Fatalf("no retries recorded across a node restart: %+v", st)
	}
}

// TestWireEdgeWatermarkOrdering: a watermark broadcast flushes the data
// it covers first, so the receiver never sees the promise before the
// tuples.
func TestWireEdgeWatermarkOrdering(t *testing.T) {
	h := transport.NewCountHandler()
	rec := &recordingHandler{inner: h}
	w, err := transport.ListenHandler("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	e, err := DialWire([]string{w.Addr()}, WireOptions{Seed: 1, ModeSet: true, Mode: route.StrategyKG})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tup := wire.Tuple{KeyHash: 5, EmitNanos: 10}
	for i := 0; i < 3; i++ {
		if err := e.SendTuple(&tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Watermark(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := w.WaitProcessed(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.markAt != 3 {
		t.Fatalf("mark arrived after %d tuples, want 3", rec.markAt)
	}
	if st := e.Stats(); st.Marks != 1 {
		t.Fatalf("marks = %d", st.Marks)
	}
}

type recordingHandler struct {
	inner  transport.Handler
	mu     sync.Mutex
	seen   int
	markAt int
}

func (r *recordingHandler) HandleTuple(t *wire.Tuple) {
	r.mu.Lock()
	r.seen++
	r.mu.Unlock()
	r.inner.HandleTuple(t)
}
func (r *recordingHandler) HandlePartial(p *wire.Partial) { r.inner.HandlePartial(p) }
func (r *recordingHandler) HandleMark(m wire.Mark) {
	r.mu.Lock()
	r.markAt = r.seen
	r.mu.Unlock()
	r.inner.HandleMark(m)
}
func (r *recordingHandler) HandleQuery(q wire.Query) wire.Reply { return r.inner.HandleQuery(q) }

// TestWireCloseDeliversTail: Close returns only once the node has read
// everything sent before it, here to a node still gated when Close
// starts. A sender that closed outright would turn the node's next ack
// into a connection reset, cutting off the unread tail and its final
// mark.
func TestWireCloseDeliversTail(t *testing.T) {
	const window = 8
	g := &gatedHandler{gate: make(chan struct{})}
	rec := &recordingHandler{inner: g}
	w, err := transport.ListenHandler("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	e, err := DialWire([]string{w.Addr()}, WireOptions{Seed: 1, Window: window, MaxBatchTuples: 1})
	if err != nil {
		t.Fatal(err)
	}
	tup := wire.Tuple{KeyHash: 5}
	for i := 0; i < window; i++ {
		if err := e.SendTuple(&tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Watermark(0, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(50*time.Millisecond, func() { close(g.gate) })
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Processed(); got != window {
		t.Fatalf("node absorbed %d/%d tuples when Close returned", got, window)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.markAt != window {
		t.Fatalf("final mark handled after %d tuples, want %d", rec.markAt, window)
	}
}
