package window

import (
	"fmt"
	"testing"

	"pkgstream/internal/engine"
)

// discard is an Emitter that drops everything.
type discard struct{}

func (discard) Emit(engine.Tuple) {}

// genericCount is Count without the Combiner fast path, to benchmark
// the boxed-state path against the int64 one.
type genericCount struct{}

func (genericCount) Init() State                              { return int64(0) }
func (genericCount) Accumulate(s State, _ engine.Tuple) State { return s.(int64) + 1 }
func (genericCount) Merge(a, b State) State                   { return a.(int64) + b.(int64) }
func (genericCount) Output(_ string, s State) any             { return s }

// BenchmarkWindowFlush measures one full aggregation period of the
// partial stage: accumulate a keyed stream into live counters, then
// tick-flush every partial downstream — the per-period cost the
// aggregation period T amortizes.
func BenchmarkWindowFlush(b *testing.B) {
	for _, bc := range []struct {
		name string
		agg  Aggregator
		keys int
	}{
		{"combiner/1k", Count{}, 1_000},
		{"combiner/10k", Count{}, 10_000},
		{"generic/1k", genericCount{}, 1_000},
		{"generic/10k", genericCount{}, 10_000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const tuplesPerPeriod = 4 // distinct keys touched 4× each
			tuples := make([]engine.Tuple, bc.keys)
			for i := range tuples {
				tuples[i] = engine.Tuple{Key: fmt.Sprintf("k%d", i), EmitNanos: int64(i + 1)}
			}
			plan := MustPlan(bc.agg, Spec{})
			pb := plan.NewPartial().(*PartialBolt)
			pb.Prepare(&engine.Context{Component: "p", Parallelism: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < tuplesPerPeriod; r++ {
					for _, t := range tuples {
						pb.Execute(t, discard{})
					}
				}
				pb.Execute(engine.Tuple{Tick: true}, discard{})
			}
			tuplesTotal := float64(b.N * bc.keys * tuplesPerPeriod)
			b.ReportMetric(tuplesTotal/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(float64(b.N*bc.keys)/b.Elapsed().Seconds(), "partials/s")
		})
	}
}

// BenchmarkFinalMerge measures the final stage's steady state: with
// `open` windows open, every round merges one partial per key into
// each open window, then a watermark advance closes the oldest window
// and the next round opens a new one (a sliding window advancing one
// slide per aggregation period). ns/partial covers the merge and the
// amortized close.
func BenchmarkFinalMerge(b *testing.B) {
	const size = 1000 // window length and slide, in event-time ns
	for _, keys := range []int{1_000, 10_000} {
		for _, open := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("keys=%d/open=%d", keys, open), func(b *testing.B) {
				tuples := make([]engine.Tuple, keys)
				for i := range tuples {
					tuples[i] = engine.Tuple{Key: fmt.Sprintf("k%d", i)}
					tuples[i].RouteKey() // arrive hashed, as off a key-grouped edge
				}
				fb := MustPlan(Count{}, Spec{Size: size}).NewFinal().(*FinalBolt)
				fb.Prepare(&engine.Context{Component: "f", Parallelism: 1})
				one := State(int64(1))
				round := func(r int) {
					for j := 0; j < open; j++ {
						// One boxed partial per window, shared by its keys:
						// the merge, not the harness, allocates.
						vals := engine.Values{partialState{start: int64(r-j) * size, state: one}}
						for _, t := range tuples {
							t.Values = vals
							fb.Execute(t, discard{})
						}
					}
					oldest := int64(r-open+1) * size
					fb.Execute(engine.Tuple{Tick: true, Values: engine.Values{mark{of: 1, wm: oldest + size}}}, discard{})
				}
				r := open // window starts stay positive
				for ; r < 2*open; r++ {
					round(r) // fill: `open` windows live
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round(r + i)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys*open), "ns/partial")
			})
		}
	}
}
