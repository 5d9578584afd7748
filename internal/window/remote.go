package window

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"pkgstream/internal/edge"
	"pkgstream/internal/engine"
	"pkgstream/internal/metrics"
	"pkgstream/internal/route"
	"pkgstream/internal/trace"
	"pkgstream/internal/transport"
	"pkgstream/internal/wire"
)

// This file is the distributed half of the windowed two-phase
// aggregation: the partial stage stays in the engine process, and the
// final stage — merging partials and closing windows on watermarks —
// lives behind a TCP boundary in another process (cmd/pkgnode). Two
// pieces make that span:
//
//   - remoteFinal, a forwarder bolt that replaces the in-process final
//     stage: it encodes every flushed partial as a wire.Partial and
//     key-groups it over the remote node addresses, and relays every
//     partial instance's watermark as a wire.Mark (one remote "source"
//     per partial instance). The hop is an edge.Wire, the same sender
//     the spout → partial hop uses: credit flow control, redial with
//     bounded backoff, and edge telemetry come with it;
//   - FinalHandler, the transport.Handler that hosts an ordinary
//     FinalBolt on the remote side: partials merge, windows close once
//     the minimum watermark across all live sources passes their end,
//     and closed results are collected for OpResults point queries.

// StateCodec is the optional Aggregator extension a remote final needs
// on the general (non-Combiner) path: partial accumulators must have a
// wire form to cross the process boundary. Combiner aggregators travel
// as a single int64 and need no codec.
type StateCodec interface {
	// EncodeState serializes one partial accumulator.
	EncodeState(s State) []byte
	// DecodeState reverses EncodeState.
	DecodeState(b []byte) (State, error)
}

// ResultCodec is the optional Aggregator extension for shipping
// non-int64 window results in OpResults replies. Without it, a remote
// final whose Output is not an int64 reports the result as unencodable
// (FinalHandler.Unencodable) instead of guessing.
type ResultCodec interface {
	// EncodeResult serializes one closed window's output value.
	EncodeResult(key string, v any) []byte
}

// NewRemoteFinal returns an engine.Bolt factory for the forwarder that
// replaces this plan's in-process final stage (engine.RemoteFinal wires
// it up): flushed partials are key-grouped over the remote node
// addresses — all partials of a key must meet at one node — and
// watermark marks are broadcast to every node. seed derives the
// key→node hash; reuse it for any out-of-band per-key node lookup.
// It errors when the plan's aggregator has neither the int64 fast path
// nor a StateCodec, or when addrs is empty.
func (p *Plan) NewRemoteFinal(addrs []string, seed uint64) (func() engine.Bolt, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("window: remote final with no node addresses")
	}
	var codec StateCodec
	if p.comb == nil {
		c, ok := p.agg.(StateCodec)
		if !ok {
			return nil, fmt.Errorf("window: aggregator %T has no int64 fast path and no StateCodec; partial states need a wire form to cross processes", p.agg)
		}
		codec = c
	}
	return func() engine.Bolt {
		in := &instrumentation{}
		p.mu.Lock()
		p.fins = append(p.fins, in)
		p.mu.Unlock()
		return &remoteFinal{
			plan: p,
			inst: in,
			snd: partialSender{
				comp: "remote-final", addrs: addrs, seed: seed, codec: codec,
			},
		}
	}, nil
}

// partialSender ships flushed partials and watermark marks to the final
// nodes over an edge.Wire dialed with key grouping, so all partials of
// a key meet at one node. The edge supplies everything but the partial
// encode: credit flow control (a slow final node stalls this sender),
// redial with bounded backoff, and the telemetry pkgtop reads. Only
// exhausted retries surface, as a typed *engine.EdgeError, so the
// topology fails cleanly and diagnosably instead of panicking on the
// first broken pipe. Both forwarding shapes share it: the in-engine
// remoteFinal bolt and the pkgnode-side PartialHandler.
type partialSender struct {
	comp  string
	addrs []string
	seed  uint64
	codec StateCodec // nil on the Combiner fast path

	mu      sync.Mutex // guards e for stats readers vs dial
	e       *edge.Wire
	scratch wire.Partial
}

// dial connects the edge to the final nodes. KG under the same seed
// gives the same key→node hash as every other key-grouped hop.
func (s *partialSender) dial() error {
	e, err := edge.DialWire(s.addrs, edge.WireOptions{
		Mode: route.StrategyKG, ModeSet: true, Seed: s.seed,
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.e = e
	s.mu.Unlock()
	return nil
}

func (s *partialSender) edgeErr(err error) error {
	return &engine.EdgeError{
		Component: s.comp,
		Addr:      strings.Join(s.addrs, ","),
		Attempts:  edge.SendAttempts,
		Err:       err,
	}
}

// sendPartial encodes and ships one flushed (key, window) partial.
// traceID, when nonzero, rides the wire so the final node continues
// the trace; the edge records the ship as a wire-send span.
func (s *partialSender) sendPartial(key string, hash uint64, ps partialState, traceID uint64) error {
	p := &s.scratch
	p.KeyHash = hash
	p.Key = key
	p.Start = ps.start
	p.TraceID = traceID
	if s.codec == nil {
		p.Count = ps.state.(int64)
		p.Raw = nil
	} else {
		p.Count = 0
		p.Raw = s.codec.EncodeState(ps.state)
	}
	if err := s.e.SendPartial(p); err != nil {
		return s.edgeErr(err)
	}
	return nil
}

// sendMark relays one watermark under the given source ID, behind
// every partial it covers.
func (s *partialSender) sendMark(from uint32, wm int64) error {
	if err := s.e.Watermark(from, wm); err != nil {
		return s.edgeErr(err)
	}
	return nil
}

// close flushes and releases the connections; the edge's counters stay
// readable.
func (s *partialSender) close() error { return s.e.Close() }

// current returns the edge, nil before dial.
func (s *partialSender) current() *edge.Wire {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e
}

// EdgeStats snapshots the edge's counters in engine form.
func (s *partialSender) EdgeStats() engine.EdgeStats {
	if e := s.current(); e != nil {
		return e.Stats()
	}
	return engine.EdgeStats{}
}

// CreditWait snapshots the edge's credit-stall histogram.
func (s *partialSender) CreditWait() metrics.HistSnapshot {
	if e := s.current(); e != nil {
		return e.CreditWait()
	}
	return metrics.HistSnapshot{}
}

// remoteFinal forwards the partial stage's output over TCP instead of
// merging locally. It runs as a single funnel instance: the one
// key-grouped hop to the remote nodes happens here, so remote node
// count and partial parallelism stay independent.
type remoteFinal struct {
	plan *Plan
	inst *instrumentation
	snd  partialSender
}

// Prepare implements engine.Bolt: it dials the remote nodes. A dial
// failure panics with a typed *engine.EdgeError, which the engine
// runtime converts into a topology error (factories and Prepare run
// inside instance goroutines).
func (b *remoteFinal) Prepare(*engine.Context) {
	if err := b.snd.dial(); err != nil {
		panic(&engine.EdgeError{
			Component: b.snd.comp, Addr: strings.Join(b.snd.addrs, ","),
			Attempts: 1, Err: err,
		})
	}
}

// Execute implements engine.Bolt: partials are encoded and key-grouped
// to their node, marks are relayed per partial instance. Send failures
// redial with bounded backoff inside the edge; an exhausted retry
// panics with the typed *engine.EdgeError, which the runtime surfaces
// through Run — the topology fails cleanly, naming the dead nodes.
func (b *remoteFinal) Execute(t engine.Tuple, out engine.Emitter) {
	if t.Tick {
		if len(t.Values) == 1 {
			if m, ok := t.Values[0].(mark); ok {
				if err := b.snd.sendMark(uint32(m.from), m.wm); err != nil {
					panic(err)
				}
				b.inst.flushes.Add(1)
			}
		}
		return // engine timer ticks carry no values and are ignored
	}
	ps, ok := t.Values[0].(partialState)
	if !ok {
		panic(fmt.Sprintf("window: remote final received a non-partial tuple (values %v)", t.Values))
	}
	if err := b.snd.sendPartial(t.Key, t.RouteKey(), ps, t.TraceID); err != nil {
		panic(err)
	}
	b.inst.partialsOut.Add(1)
}

// Cleanup implements engine.Bolt: by the time the forwarder's input
// closes, every partial instance has sent its final mark (already
// relayed in Execute), so only the connections remain to be flushed.
func (b *remoteFinal) Cleanup(engine.Emitter) {
	if err := b.snd.close(); err != nil {
		panic(fmt.Sprintf("window: remote final: %v", err))
	}
}

// WindowStats implements engine.WindowStatsSource: PartialsOut counts
// forwarded partials and Flushes counts relayed marks.
func (b *remoteFinal) WindowStats() engine.WindowStats { return b.inst.snapshot() }

// EdgeStats implements engine.EdgeStatsSource: the forwarder's frame,
// stall, retry and failure counters surface through Stats.Edges.
func (b *remoteFinal) EdgeStats() engine.EdgeStats { return b.snd.EdgeStats() }

// FinalHandler hosts a windowed final stage behind a transport.Worker:
// the remote half of a RemoteFinal topology, and the engine room of
// `pkgnode -mode final`. Decoded partials merge into an ordinary
// FinalBolt; marks advance its watermark, which is the minimum across
// all live sources (one source per upstream partial instance); closed
// windows are collected and served to OpResults queries.
//
// The transport worker serializes handler calls, and the handler's own
// mutex covers the accessors, so a FinalHandler is safe to inspect
// while sources stream.
type FinalHandler struct {
	mu      sync.Mutex
	plan    *Plan
	bolt    *FinalBolt
	codec   StateCodec // nil on the Combiner fast path
	rc      ResultCodec
	sources int
	finals  map[uint32]bool
	results resultLog
	subs    []*finalSub
	bad     int64
	unenc   int64
	done    bool
}

// resultLog is a final node's append-only log of closed windows, held
// in pages of resultsPage results. Appending never copies what is
// already logged: one growing slice would, at every growth step, hold
// the whole log twice until the next GC — the largest transient in a
// final node's heap.
type resultLog struct {
	pages [][]wire.WindowResult
	n     int
}

func (l *resultLog) add(r wire.WindowResult) {
	if l.n%resultsPage == 0 {
		l.pages = append(l.pages, nil)
	}
	last := &l.pages[len(l.pages)-1]
	*last = append(*last, r)
	l.n++
}

// from returns the logged results from offset off (0 ≤ off ≤ n) to the
// end of off's page: at most resultsPage of them, empty at the end.
func (l *resultLog) from(off int) []wire.WindowResult {
	if off == l.n {
		return nil
	}
	return l.pages[off/resultsPage][off%resultsPage:]
}

// finalSub is one push subscription: a sink bound to the subscriber's
// connection and the result-log offset it has been fed up to.
type finalSub struct {
	sink     transport.ResultSink
	off      int
	toldDone bool
}

// NewFinalHandler builds the hosting handler for this plan's final
// stage. sources is the number of distinct upstream sources that will
// send marks — for a RemoteFinal topology, the partial stage's
// parallelism; windows close once the minimum watermark over all of
// them passes their end, and the handler reports Done once every source
// has sent its final (math.MaxInt64) mark.
func (p *Plan) NewFinalHandler(sources int) (*FinalHandler, error) {
	if sources <= 0 {
		return nil, fmt.Errorf("window: final handler needs a positive source count, got %d", sources)
	}
	var codec StateCodec
	if p.comb == nil {
		c, ok := p.agg.(StateCodec)
		if !ok {
			return nil, fmt.Errorf("window: aggregator %T has no int64 fast path and no StateCodec; partial states need a wire form to cross processes", p.agg)
		}
		codec = c
	}
	h := &FinalHandler{
		plan:    p,
		bolt:    p.NewFinal().(*FinalBolt),
		codec:   codec,
		sources: sources,
		finals:  map[uint32]bool{},
	}
	if rc, ok := p.agg.(ResultCodec); ok {
		h.rc = rc
	}
	h.bolt.Prepare(&engine.Context{Component: "remote-final", Parallelism: 1})
	return h, nil
}

// collector is the emitter the hosted FinalBolt closes windows into; it
// runs under h.mu (every bolt call sits inside the handler lock).
type resultCollector FinalHandler

// Emit implements engine.Emitter.
func (c *resultCollector) Emit(t engine.Tuple) {
	h := (*FinalHandler)(c)
	res, ok := t.Values[0].(Result)
	if !ok {
		h.bad++
		return
	}
	wr := wire.WindowResult{KeyHash: res.KeyHash, Key: res.Key, Start: res.Start, End: res.End}
	switch v := res.Value.(type) {
	case int64:
		wr.Value = v
	default:
		if h.rc == nil {
			h.unenc++
			return
		}
		wr.Raw = h.rc.EncodeResult(res.Key, v)
	}
	h.results.add(wr)
}

// HandleTuple implements transport.Handler: a final node consumes
// partials, not raw tuples — tuples are counted as protocol misuse.
func (h *FinalHandler) HandleTuple(*wire.Tuple) {
	h.mu.Lock()
	h.bad++
	h.mu.Unlock()
}

// HandlePartial implements transport.Handler. The partial merges
// unboxed: a count goes in as a plain int64, so merging into a live
// slot allocates nothing.
func (h *FinalHandler) HandlePartial(p *wire.Partial) {
	var st State
	if p.Raw != nil {
		if h.codec == nil {
			h.mu.Lock()
			h.bad++
			h.mu.Unlock()
			return
		}
		var err error
		if st, err = h.codec.DecodeState(p.Raw); err != nil {
			h.mu.Lock()
			h.bad++
			h.mu.Unlock()
			return
		}
	} else if h.codec != nil {
		// General path, no raw state: the count is the state.
		st = p.Count
	}
	var hash uint64
	if h.plan.mergeHashes(p.Key) {
		// The same routing hash Execute takes from the tuple.
		t := engine.Tuple{Key: p.Key, KeyHash: p.KeyHash}
		hash = t.RouteKey()
	}
	h.mu.Lock()
	h.bolt.merge(p.Key, hash, p.Start, p.Count, st, p.TraceID)
	h.mu.Unlock()
}

// HandleMark implements transport.Handler: the mark advances the hosted
// bolt's per-source watermark table; final marks tick off sources until
// the handler is done. Windows only close here (watermark advances),
// so this is also the single point where push subscribers get fed.
func (h *FinalHandler) HandleMark(m wire.Mark) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bolt.advance(mark{from: int(m.Source), of: h.sources, wm: m.WM}, (*resultCollector)(h))
	if m.Final() {
		h.finals[m.Source] = true
		if len(h.finals) >= h.sources {
			h.done = true
		}
	}
	h.pushAll()
}

// HandleSubscribe implements transport.PushHandler: the connection
// starts receiving server-initiated Reply frames — the backlog from the
// requested offset immediately, every subsequently closed window as its
// watermark passes, and a final Done frame — removing the DrainResults
// poll from the latency path.
func (h *FinalHandler) HandleSubscribe(s wire.Subscribe, sink transport.ResultSink) {
	h.mu.Lock()
	defer h.mu.Unlock()
	off := int(s.Offset)
	if off < 0 || off > h.results.n {
		off = h.results.n
	}
	sub := &finalSub{sink: sink, off: off}
	if h.pushTo(sub) {
		h.subs = append(h.subs, sub)
	}
}

// pushAll feeds every subscriber the results it has not seen, dropping
// subscribers whose sink failed. Runs under h.mu.
func (h *FinalHandler) pushAll() {
	if len(h.subs) == 0 {
		return
	}
	alive := h.subs[:0]
	for _, sub := range h.subs {
		if h.pushTo(sub) {
			alive = append(alive, sub)
		}
	}
	for i := len(alive); i < len(h.subs); i++ {
		h.subs[i] = nil
	}
	h.subs = alive
}

// pushTo writes the subscriber's outstanding results (paged, so one
// push stays well under wire.MaxPayload) and, once the node is done,
// exactly one Done frame. It reports whether the sink is still alive.
func (h *FinalHandler) pushTo(sub *finalSub) bool {
	for sub.off < h.results.n || (h.done && !sub.toldDone) {
		page := h.results.from(sub.off)
		end := sub.off + len(page)
		rep := wire.Reply{
			Op:      wire.OpResults,
			Done:    h.done && end == h.results.n,
			Count:   int64(h.results.n),
			Results: page,
		}
		if err := sub.sink.Push(&rep); err != nil {
			return false
		}
		sub.off = end
		if rep.Done {
			sub.toldDone = true
		}
	}
	return true
}

// resultsPage bounds one OpResults reply so large drains stay well
// under wire.MaxPayload; clients page with Query.Key as the offset.
const resultsPage = 32768

// HandleQuery implements transport.Handler.
//
//	OpResults — one page of closed windows starting at offset Query.Key
//	            (Count carries the total so far; results are append-only,
//	            so paging by offset is stable), plus Done;
//	OpCount   — the total over closed windows of the queried key hash;
//	OpStats   — the number of closed windows, plus the node's
//	            window-close staleness histogram;
//	OpTrace   — the process name plus the retained trace spans, for
//	            cross-process trace assembly.
func (h *FinalHandler) HandleQuery(q wire.Query) wire.Reply {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch q.Op {
	case wire.OpResults:
		off := int(q.Key)
		if off < 0 || off > h.results.n {
			off = h.results.n
		}
		out := slices.Clone(h.results.from(off))
		return wire.Reply{Op: q.Op, Done: h.done, Count: int64(h.results.n), Results: out}
	case wire.OpCount:
		var total int64
		for _, page := range h.results.pages {
			for i := range page {
				if page[i].KeyHash == q.Key {
					total += page[i].Value
				}
			}
		}
		return wire.Reply{Op: q.Op, Done: h.done, Count: total}
	case wire.OpStats:
		// A final node has no outbound edge: the edge fields stay zero
		// and only the window-progress half of the telemetry is live.
		return wire.Reply{
			Op: q.Op, Done: h.done, Count: int64(h.results.n),
			Stale:     wireHist(h.bolt.inst.hist.Snapshot()),
			Telemetry: telemetry(h.bolt.WindowStats(), engine.EdgeStats{}, metrics.HistSnapshot{}),
		}
	case wire.OpTrace:
		return wire.Reply{
			Op: q.Op, Done: h.done,
			Proc: trace.Process(), Spans: transport.TraceSpans(),
		}
	default:
		return wire.Reply{Op: q.Op}
	}
}

// Done reports whether every expected source has sent its final mark
// (at which point every window has closed).
func (h *FinalHandler) Done() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done
}

// WaitDone blocks until Done or the timeout expires.
func (h *FinalHandler) WaitDone(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !h.Done() {
		if time.Now().After(deadline) {
			h.mu.Lock()
			n := len(h.finals)
			h.mu.Unlock()
			return fmt.Errorf("window: final handler saw %d/%d final marks after %v",
				n, h.sources, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Results returns a copy of the closed windows so far.
func (h *FinalHandler) Results() []wire.WindowResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]wire.WindowResult, 0, h.results.n)
	for _, page := range h.results.pages {
		out = append(out, page...)
	}
	return out
}

// BadFrames counts frames the handler could not apply (raw tuples,
// undecodable states) — nonzero means a misconfigured topology, never
// silent data loss.
func (h *FinalHandler) BadFrames() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bad
}

// Unencodable counts closed windows whose result value had no wire form
// (non-int64 Output and no ResultCodec).
func (h *FinalHandler) Unencodable() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.unenc
}

// Stats returns the hosted final stage's window counters.
func (h *FinalHandler) Stats() engine.WindowStats {
	return h.bolt.WindowStats()
}

// StalenessStats returns the hosted final stage's window-close
// staleness histogram (wall-clock windows only).
func (h *FinalHandler) StalenessStats() metrics.HistSnapshot {
	return h.bolt.inst.hist.Snapshot()
}
