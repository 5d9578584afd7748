package window

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"pkgstream/internal/engine"
	"pkgstream/internal/route"
	"pkgstream/internal/wire"
)

// fev is one event fed to a FinalBolt: a partial (key or integer hash,
// window start, count) or, with isMark, the watermark wm of partial
// instance `from` out of `of`.
type fev struct {
	isMark   bool
	from, of int
	wm       int64

	key   string
	hash  uint64 // integer key when key is ""
	start int64
	n     int64
}

func fp(key string, start, n int64) fev     { return fev{key: key, start: start, n: n} }
func fpInt(hash uint64, start, n int64) fev { return fev{hash: hash, start: start, n: n} }
func fm(from, of int, wm int64) fev         { return fev{isMark: true, from: from, of: of, wm: wm} }

// refCmp orders results by (start, key, hash): the final stage's
// documented close order.
func refCmp(a, b Result) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if c := strings.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.KeyHash, b.KeyHash)
}

// refFinal is the brute-force reference final stage: one flat map of
// every live (start, key, hash) sum; each watermark advance scans all
// of it and emits the due slots sorted by (start, key, hash).
func refFinal(sp Spec, evs []fev) (out []Result, late int64) {
	type rslot struct {
		start int64
		key   string
		hash  uint64
	}
	live := map[rslot]int64{}
	wms := map[int]int64{}
	closed := int64(math.MinInt64)
	closeUpTo := func(wm int64) {
		if wm <= closed {
			return
		}
		closed = wm
		var due []Result
		for sl, sum := range live {
			if end := sp.end(sl.start); end <= wm {
				due = append(due, Result{Key: sl.key, KeyHash: sl.hash, Start: sl.start, End: end, Value: sum})
				delete(live, sl)
			}
		}
		slices.SortFunc(due, refCmp)
		out = append(out, due...)
	}
	for _, e := range evs {
		if e.isMark {
			if old, ok := wms[e.from]; !ok || e.wm > old {
				wms[e.from] = e.wm
			}
			if len(wms) < e.of {
				continue
			}
			wm := int64(math.MaxInt64)
			for _, v := range wms {
				wm = min(wm, v)
			}
			closeUpTo(wm)
			continue
		}
		if sp.end(e.start) <= closed {
			late++
			continue
		}
		sl := rslot{start: e.start}
		if !sp.PerInstance {
			sl.key, sl.hash = e.key, e.hash
			if e.key != "" {
				sl.hash = route.KeyHash(e.key)
			}
		}
		live[sl] += e.n
	}
	closeUpTo(math.MaxInt64)
	return out, late
}

// runFinal drives a FinalBolt through evs and Cleanup, returning every
// emitted Result in emission order and the bolt's stats.
func runFinal(t *testing.T, agg Aggregator, sp Spec, evs []fev) ([]Result, engine.WindowStats) {
	t.Helper()
	plan := MustPlan(agg, sp)
	fb := plan.NewFinal().(*FinalBolt)
	fb.Prepare(&engine.Context{Component: "final", Parallelism: 1})
	c := &capture{}
	for _, e := range evs {
		if e.isMark {
			fb.Execute(engine.Tuple{Tick: true, Values: engine.Values{mark{from: e.from, of: e.of, wm: e.wm}}}, c)
			continue
		}
		tu := engine.Tuple{Key: e.key, KeyHash: e.hash}
		tu.Values = engine.Values{partialState{start: e.start, state: State(e.n)}}
		fb.Execute(tu, c)
	}
	fb.Cleanup(c)
	res := make([]Result, len(c.out))
	for i, tu := range c.out {
		res[i] = tu.Values[0].(Result)
	}
	return res, fb.WindowStats()
}

// randomKeys mixes short keys with keys that share their first eight
// bytes or are prefixes of each other (zero bytes included), so the
// close order is checked beyond the first eight bytes too.
var randomKeys = []string{
	"a", "b", "c", "ab", "ab\x00", "ab\x00c", "z",
	"prefix-long-1", "prefix-long-2", "prefix-l", "prefix-", "prefix-long-10",
}

// randomEvents builds a seeded stream of partials over string and
// integer keys whose window starts wander back and forth behind an
// advancing clock, with marks from two partial instances (some behind
// the clock, so a few partials arrive late).
func randomEvents(sp Spec, seed uint64, n int) []fev {
	r := rand.New(rand.NewPCG(seed, 1))
	slide := int64(sp.Slide)
	if slide == 0 {
		slide = int64(sp.Size)
	}
	var evs []fev
	clock := int64(0)
	for i := 0; i < n; i++ {
		if r.IntN(10) == 0 {
			clock += slide / 2
			from := r.IntN(2)
			evs = append(evs, fm(from, 2, clock-int64(r.IntN(3))*slide))
			continue
		}
		start := (clock/slide - int64(r.IntN(4))) * slide
		cnt := int64(1 + r.IntN(300)) // above 255 too: boxed int64 states
		if r.IntN(3) == 0 {
			evs = append(evs, fpInt(uint64(1+r.IntN(12)), start, cnt))
		} else {
			evs = append(evs, fp(randomKeys[r.IntN(len(randomKeys))], start, cnt))
		}
	}
	return evs
}

func TestFinalBoltMatchesBruteForce(t *testing.T) {
	const ten = 10 * time.Millisecond
	tumbling := Spec{Size: ten}
	sliding := Spec{Size: 3 * ten, Slide: ten}
	perInst := Spec{Size: ten, PerInstance: true}
	w := func(i int64) int64 { return i * int64(ten) }

	outOfOrder := []fev{
		fp("b", w(2), 1), fp("a", w(0), 2), fp("c", w(1), 3), fpInt(7, w(2), 4),
		fp("a", w(2), 5), fp("a", w(0), 6), fpInt(3, w(0), 7), fp("b", w(1), 8),
		fm(0, 1, w(2)), // closes windows 0 and 1, keeps 2 open
		fp("z", w(4), 9), fp("y", w(3), 10), fp("z", w(2), 11),
		fm(0, 1, w(4)),
	}
	// A partial for a closed window is late and must not reopen it.
	late := []fev{
		fp("a", w(0), 1), fp("b", w(1), 2),
		fm(0, 1, w(1)),
		fp("a", w(0), 100), fpInt(9, w(0), 100),
		fp("a", w(1), 3),
		fm(0, 1, w(5)),
		fp("b", w(1), 100),
	}
	// The closed window's map is recycled for the next one opened; its
	// counts must not leak into it.
	recycle := []fev{
		fp("a", w(0), 5), fp("b", w(0), 6), fpInt(4, w(0), 7),
		fm(0, 1, w(1)),
		fp("a", w(1), 1),
		fm(0, 1, w(2)),
		fp("b", w(3), 2), fp("c", w(2), 3),
		fm(0, 1, w(9)),
		fp("a", w(9), 4),
	}
	// Sliding: every tuple lands in three windows; marks from two
	// instances close them one slide at a time.
	slide := []fev{
		fp("a", w(0), 1), fp("a", w(1), 1), fp("a", w(2), 1),
		fp("b", w(1), 2), fp("b", w(2), 2), fp("b", w(3), 2),
		fm(0, 2, w(3)), fm(1, 2, w(4)), // min is w(3): closes window 0
		fpInt(5, w(3), 3), fpInt(5, w(4), 3), fpInt(5, w(5), 3),
		fm(0, 2, w(5)),   // min w(4): closes window 1
		fp("a", w(1), 9), // late
		fm(1, 2, w(7)), fm(0, 2, w(7)),
	}
	cases := []struct {
		name string
		sp   Spec
		evs  []fev
	}{
		{"out-of-order", tumbling, outOfOrder},
		{"late", tumbling, late},
		{"recycle", tumbling, recycle},
		{"sliding", sliding, slide},
		{"per-instance", perInst, outOfOrder},
		{"per-instance-late", perInst, late},
		{"global", Spec{}, outOfOrder},
		{"random-tumbling", tumbling, randomEvents(tumbling, 1, 2000)},
		{"random-sliding", sliding, randomEvents(sliding, 2, 2000)},
		{"random-per-instance", perInst, randomEvents(perInst, 3, 2000)},
	}
	aggs := []struct {
		name string
		agg  Aggregator
	}{{"combiner", Count{}}, {"generic", genericCount{}}}
	for _, tc := range cases {
		for _, ag := range aggs {
			if tc.sp.Size == 0 && ag.name == "combiner" {
				continue // the global counters path: TestGlobalCombinerFastPathMixedKeys
			}
			t.Run(tc.name+"/"+ag.name, func(t *testing.T) {
				want, wantLate := refFinal(tc.sp, tc.evs)
				got, ws := runFinal(t, ag.agg, tc.sp, tc.evs)
				if !slices.Equal(got, want) {
					n := min(len(got), len(want))
					for i := 0; i < n; i++ {
						if got[i] != want[i] {
							t.Fatalf("result %d: got %+v, want %+v (got %d results, want %d)", i, got[i], want[i], len(got), len(want))
						}
					}
					t.Fatalf("got %d results, want %d", len(got), len(want))
				}
				if ws.LateDropped != wantLate {
					t.Errorf("LateDropped = %d, want %d", ws.LateDropped, wantLate)
				}
				if ws.WindowsClosed != int64(len(want)) || ws.Live != 0 {
					t.Errorf("WindowsClosed = %d, Live = %d; want %d, 0", ws.WindowsClosed, ws.Live, len(want))
				}
			})
		}
	}
}

func TestHandlePartialLiveSlotAllocatesNothing(t *testing.T) {
	h, err := MustPlan(Count{}, Spec{Size: 10 * time.Millisecond}).NewFinalHandler(1)
	if err != nil {
		t.Fatal(err)
	}
	str := &wire.Partial{Key: "word", Start: 0, Count: 1000}
	num := &wire.Partial{KeyHash: 42, Start: 0, Count: 1000}
	merge := func() {
		h.HandlePartial(str)
		h.HandlePartial(num)
	}
	merge() // both slots live from here on
	calls := int64(1)
	if a := testing.AllocsPerRun(200, func() { merge(); calls++ }); a != 0 {
		t.Fatalf("HandlePartial into a live slot: %.1f allocs, want 0", a)
	}
	h.HandleMark(wire.Mark{Source: 0, WM: math.MaxInt64})
	want := map[string]int64{"word": calls * 1000, "": calls * 1000}
	for _, r := range h.Results() {
		if r.Value != want[r.Key] {
			t.Errorf("key %q: count %d, want %d", r.Key, r.Value, want[r.Key])
		}
		delete(want, r.Key)
	}
	if len(want) != 0 {
		t.Errorf("missing results for %v", want)
	}
}
