package window

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"pkgstream/internal/engine"
	"pkgstream/internal/trace"
)

// FinalBolt is the second stage of a windowed aggregation: it merges the
// flushed partials of each (key, window) pair — under PKG at most two
// per flush round, the bounded aggregation cost the paper argues for —
// and emits one Result per pair once the combined watermark (the minimum
// across all partial instances) passes the window's end. Partials
// arriving for an already-closed window are dropped and counted as late.
//
// Live state is indexed by window: the open windows sit in ascending
// start order, each with its own (hash, key) accumulator map. A merge
// finds its window by a short scan from the newest end, then its key. A
// close pops only the due windows off the front and sorts each one's
// keys, so it costs O(due slots · log) plus the open windows and never
// touches a live slot of a window that stays open.
type FinalBolt struct {
	plan *Plan
	inst *instrumentation

	ctx engine.Context
	// open holds the open windows in ascending start order — also
	// ascending end order, since every window has the same Size. The
	// watermark trails the newest partial by about one aggregation
	// period, so only a few windows are open at once.
	open []*openWindow
	// free holds closed windows whose cleared maps the next windows to
	// open reuse.
	free []*openWindow
	// due and order are the close scratch, reused across closes.
	due   []dueSlot
	order []dueRef
	// strCounts/intCounts are the global-window Combiner fast path,
	// mirroring PartialBolt: one window per key means the merge is a
	// plain counter map keyed by the tuple key, with no window lookup
	// and no (hash, key) pair per merged partial.
	strCounts map[string]int64
	intCounts map[uint64]int64
	wms       map[int]int64 // watermark per partial instance
	closed    int64         // windows ending ≤ closed have been emitted
	noted     int64         // last combined watermark fed to the lag gauge
	live      int           // live (key, window) accumulators
	lastLive  int           // last value published to the stats gauge
	// traced maps the (key, window) slots a traced partial merged into
	// to its trace ID, so the window close that emits the slot's Result
	// can finish the trace. Lazily allocated.
	traced map[slot]uint64
}

// openWindow is one open window's live accumulators keyed by (hash,
// key): raw int64s on the Combiner path, boxed states otherwise.
// Per-instance aggregations keep a single zero key per window.
type openWindow struct {
	start  int64
	counts map[winKey]int64
	states map[winKey]State
}

// winKey identifies a key within one window.
type winKey struct {
	hash uint64
	key  string
}

// dueSlot is one accumulator of a closing window.
type dueSlot struct {
	winKey
	st State
}

// dueRef places one dueSlot in the close order. Sorting these 16-byte
// refs instead of the slots keeps swaps small, and pre — the key's
// first eight bytes, big-endian and zero-padded — settles most
// comparisons with one integer compare: pre(a) < pre(b) implies a < b,
// and only equal prefixes compare the full keys.
type dueRef struct {
	pre uint64
	i   int
}

// keyPrefix returns a key's dueRef.pre.
func keyPrefix(key string) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// Prepare implements engine.Bolt.
func (b *FinalBolt) Prepare(ctx *engine.Context) {
	b.ctx = *ctx
	if b.plan.globalCounters() {
		b.strCounts = map[string]int64{}
		b.intCounts = map[uint64]int64{}
	}
	b.wms = map[int]int64{}
	b.closed = math.MinInt64
	b.noted = math.MinInt64
}

// globalCounters reports whether the final stage runs the global-window
// Combiner fast path.
func (p *Plan) globalCounters() bool {
	return p.comb != nil && p.spec.Size <= 0 && !p.spec.PerInstance
}

// mergeHashes reports whether merging a partial for key needs the key's
// routing hash: per-instance state has no key, and the global-window
// counters key strings by the string alone.
func (p *Plan) mergeHashes(key string) bool {
	return !p.spec.PerInstance && (key == "" || !p.globalCounters())
}

// Execute implements engine.Bolt: marks advance the watermark, partials
// merge.
func (b *FinalBolt) Execute(t engine.Tuple, out engine.Emitter) {
	if t.Tick {
		if len(t.Values) == 1 {
			if m, ok := t.Values[0].(mark); ok {
				b.advance(m, out)
			}
		}
		return // engine timer ticks carry no values and are ignored
	}
	ps, ok := t.Values[0].(partialState)
	if !ok {
		panic(fmt.Sprintf("window: final stage received a non-partial tuple (values %v); "+
			"subscribe downstream bolts to the final stage, not the reverse", t.Values))
	}
	var n int64
	if b.plan.comb != nil {
		n = ps.state.(int64)
	}
	var hash uint64
	if b.plan.mergeHashes(t.Key) {
		hash = t.RouteKey()
	}
	b.merge(t.Key, hash, ps.start, n, ps.state, t.TraceID)
}

// merge folds one partial of (key, window start) into the live state:
// n on the Combiner path, st otherwise. hash is the key's routing hash
// where Plan.mergeHashes asks for it (0 elsewhere); id is the partial's
// trace (0: untraced). Both the in-process Execute and the remote
// FinalHandler merge through here.
func (b *FinalBolt) merge(key string, hash uint64, start, n int64, st State, id uint64) {
	if b.strCounts != nil {
		// Global-window Combiner fast path: the single window can only
		// close at stream end, so there is no late check and no window
		// lookup — just the counter merge.
		b.inst.merged.Add(1)
		if key != "" {
			before := len(b.strCounts)
			b.strCounts[key] += n
			b.live += len(b.strCounts) - before
			if id != 0 {
				b.tagTrace(slot{key: key}, id)
			}
		} else {
			before := len(b.intCounts)
			b.intCounts[hash] += n
			b.live += len(b.intCounts) - before
			if id != 0 {
				b.tagTrace(slot{hash: hash}, id)
			}
		}
		if id != 0 {
			trace.Add(id, trace.HopMerge, trace.Now(), 0, 0, 0, b.ctx.Component)
		}
		b.publishLive()
		return
	}
	sp := &b.plan.spec
	if sp.end(start) <= b.closed {
		b.inst.late.Add(1)
		return
	}
	w := b.window(start)
	var k winKey
	if !sp.PerInstance {
		k = winKey{hash: hash, key: key}
	}
	b.inst.merged.Add(1)
	if w.counts != nil {
		before := len(w.counts)
		w.counts[k] += n
		b.live += len(w.counts) - before
	} else if cur, ok := w.states[k]; ok {
		w.states[k] = b.plan.agg.Merge(cur, st)
	} else {
		// First partial for the pair: adopt it (the emitting instance
		// dropped its reference at flush, so no aliasing).
		w.states[k] = st
		b.live++
	}
	if id != 0 {
		b.tagTrace(slot{hash: k.hash, key: k.key, start: start}, id)
		trace.Add(id, trace.HopMerge, trace.Now(), 0, start, 0, b.ctx.Component)
	}
	b.publishLive()
}

// window returns the open window starting at start, opening it (from
// the free list when one is there) at its place in start order. The
// scan runs from the newest end: partials mostly belong to the newest
// windows.
func (b *FinalBolt) window(start int64) *openWindow {
	i := len(b.open)
	for ; i > 0; i-- {
		if w := b.open[i-1]; w.start == start {
			return w
		} else if w.start < start {
			break
		}
	}
	var w *openWindow
	if n := len(b.free); n > 0 {
		w = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
	} else if b.plan.comb != nil {
		w = &openWindow{counts: map[winKey]int64{}}
	} else {
		w = &openWindow{states: map[winKey]State{}}
	}
	w.start = start
	b.open = slices.Insert(b.open, i, w)
	return w
}

// tagTrace remembers that a traced partial merged into sl, so the
// close that emits sl's Result can finish the trace. A second traced
// partial for the same slot overwrites the first — one trace per
// Result is enough for assembly.
func (b *FinalBolt) tagTrace(sl slot, id uint64) {
	if b.traced == nil {
		b.traced = map[slot]uint64{}
	}
	b.traced[sl] = id
}

// takeTrace removes and returns the trace ID tagged on sl (0: none).
func (b *FinalBolt) takeTrace(sl slot) uint64 {
	if b.traced == nil {
		return 0
	}
	id, ok := b.traced[sl]
	if ok {
		delete(b.traced, sl)
	}
	return id
}

// publishLive updates the live-slot gauge when it changed.
func (b *FinalBolt) publishLive() {
	if b.live != b.lastLive {
		b.lastLive = b.live
		b.inst.setLive(int64(b.live))
	}
}

// Cleanup implements engine.Bolt: every remaining window closes at
// stream end.
func (b *FinalBolt) Cleanup(out engine.Emitter) {
	b.closeUpTo(math.MaxInt64, out)
}

// WindowStats implements engine.WindowStatsSource.
func (b *FinalBolt) WindowStats() engine.WindowStats { return b.inst.snapshot() }

// LatencySeries implements engine.LatencyStatsSource: the final stage's
// window-close staleness, published under component + ".staleness".
func (b *FinalBolt) LatencySeries() []engine.LatencySeries {
	return []engine.LatencySeries{{Suffix: ".staleness", Stats: b.inst.hist.Snapshot()}}
}

// wallClockFloor separates wall-clock event times from logical ones:
// only window ends at or above it (≈ year 2001 in Unix nanoseconds)
// produce staleness observations. Topologies that drive windows off a
// small logical clock would otherwise record "now − tiny end" garbage.
const wallClockFloor = 1e15

// advance folds one partial instance's watermark in and, once every
// instance has reported, closes all windows the combined (minimum)
// watermark has passed.
func (b *FinalBolt) advance(m mark, out engine.Emitter) {
	if old, ok := b.wms[m.from]; !ok || m.wm > old {
		b.wms[m.from] = m.wm
	}
	if len(b.wms) < m.of {
		return // some partial instance has not reported yet
	}
	wm := int64(math.MaxInt64)
	for _, v := range b.wms {
		if v < wm {
			wm = v
		}
	}
	if wm > b.noted {
		// The combined watermark rose: feed the lag gauge (marks are
		// control traffic, so this stays off the merge hot path).
		b.noted = wm
		b.inst.noteWM(wm)
	}
	b.closeUpTo(wm, out)
}

// closeUpTo emits and forgets every (key, window) whose end the
// watermark has passed, in deterministic (start, key, hash) order. Only
// the due windows at the front of the open list are visited; the common
// advance that closes nothing is O(1).
func (b *FinalBolt) closeUpTo(wm int64, out engine.Emitter) {
	if wm <= b.closed {
		return
	}
	b.closed = wm
	if b.strCounts != nil {
		// Global-window fast path: its one window ends at MaxInt64, so
		// it closes at stream end only, every counter at once.
		if wm == math.MaxInt64 {
			b.closeFast(out)
		}
		return
	}
	sp := &b.plan.spec
	ndue, closing := 0, 0
	for _, w := range b.open {
		if sp.end(w.start) > wm {
			break
		}
		ndue++
		closing += len(w.counts) + len(w.states)
	}
	if ndue == 0 {
		return
	}
	now := time.Now().UnixNano()
	for _, w := range b.open[:ndue] {
		due, order := b.due[:0], b.order[:0]
		if w.counts != nil {
			for k, n := range w.counts {
				order = append(order, dueRef{pre: keyPrefix(k.key), i: len(due)})
				due = append(due, dueSlot{winKey: k, st: n})
			}
			clear(w.counts)
		} else {
			for k, st := range w.states {
				order = append(order, dueRef{pre: keyPrefix(k.key), i: len(due)})
				due = append(due, dueSlot{winKey: k, st: st})
			}
			clear(w.states)
		}
		slices.SortFunc(order, func(x, y dueRef) int {
			if x.pre != y.pre {
				return cmp.Compare(x.pre, y.pre)
			}
			a, c := &due[x.i], &due[y.i]
			if r := strings.Compare(a.key, c.key); r != 0 {
				return r
			}
			return cmp.Compare(a.hash, c.hash)
		})
		end := sp.end(w.start)
		for _, o := range order {
			d := &due[o.i]
			if end >= wallClockFloor {
				// Staleness: how far behind the window's end the flush
				// that closed it ran — the visible cost of the
				// aggregation period T (paper §V Q4). Only meaningful for
				// wall-clock event time.
				b.inst.hist.Observe(now - end)
			}
			sl := slot{hash: d.hash, key: d.key, start: w.start}
			b.emitResult(sl, d.st, out, b.takeTrace(sl), closing)
		}
		// Drop the keys and states so the scratch pins nothing.
		clear(due)
		b.due, b.order = due[:0], order[:0]
	}
	b.free = append(b.free, b.open[:ndue]...)
	rest := copy(b.open, b.open[ndue:])
	clear(b.open[rest:])
	b.open = b.open[:rest]
	b.live -= closing
	b.inst.windowsClosed.Add(int64(closing))
	b.publishLive()
}

// closeFast drains the global-window counter maps: string keys in
// lexicographic order, then integer keys by hash — the same
// deterministic order the slot sort yields for start-0 slots.
func (b *FinalBolt) closeFast(out engine.Emitter) {
	n := len(b.strCounts) + len(b.intCounts)
	if n == 0 {
		return
	}
	keys := make([]string, 0, len(b.strCounts))
	for k := range b.strCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		// Restore the key's routing hash on the Result (the fast-path
		// counter map does not carry it): one hash per closed key, at
		// stream end only.
		t := engine.Tuple{Key: k}
		// The fast-path merge tagged traces on the bare key slot.
		b.emitResult(slot{key: k, hash: t.RouteKey()}, b.strCounts[k], out, b.takeTrace(slot{key: k}), n)
	}
	hashes := make([]uint64, 0, len(b.intCounts))
	for h := range b.intCounts {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	for _, h := range hashes {
		b.emitResult(slot{hash: h}, b.intCounts[h], out, b.takeTrace(slot{hash: h}), n)
	}
	clear(b.strCounts)
	clear(b.intCounts)
	b.live = 0
	b.inst.windowsClosed.Add(int64(n))
	b.publishLive()
}

// emitResult ships one closed (key, window) downstream. id is the
// trace riding the slot (0: untraced); closing is the size of the
// close batch the slot belongs to.
func (b *FinalBolt) emitResult(sl slot, st State, out engine.Emitter, id uint64, closing int) {
	sp := &b.plan.spec
	res := Result{
		Key:     sl.key,
		KeyHash: sl.hash,
		Start:   sl.start,
		End:     sp.end(sl.start),
		Value:   b.plan.agg.Output(sl.key, st),
	}
	t := engine.Tuple{Key: sl.key, Values: engine.Values{res}}
	if sl.key == "" {
		t.KeyHash = sl.hash
	}
	if id != 0 {
		t.TraceID = id
		now := trace.Now()
		trace.Add(id, trace.HopWindowClose, now, 0, sl.start, int64(closing), b.ctx.Component)
		trace.Add(id, trace.HopResult, now, 0, 0, 0, b.ctx.Component)
	}
	out.Emit(t)
}
