package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"pkgstream/internal/dataset"
	"pkgstream/internal/engine"
	"pkgstream/internal/obs"
	"pkgstream/internal/transport"
	"pkgstream/internal/window"
	"pkgstream/internal/wire"
)

// Deployment shape shared by every workload, after the pipeline
// experiment's fully distributed run.
const (
	everyTuples  = 2000 // aggregation period T in tuples
	partials     = 4    // in-process partial instances
	partialNodes = 2
	finalNodes   = 2
	hashSeed     = 42 // topology seed: PKG candidate hashes
	roundTimeout = 60 * time.Second
)

// workload is one named benchmark configuration. Every round has at
// least 1000 windows that give a latency sample, so a round's p99 has
// ten samples beyond it, and win is a multiple of markEvery.
type workload struct {
	name string
	spec dataset.Spec
	dist bool
	win  int // tuples per window
	n    int // tuples per round
	rate int // open loop: offered tuples/s (0: closed loop)
}

var workloads = []workload{
	{name: "wp-local", spec: dataset.WP.WithCap(4_000_000), win: 2000, n: 2_100_000},
	{name: "ln2-dist", spec: dataset.LN2, dist: true, win: 3000, n: 3_100_000},
	{name: "wp-dist-open", spec: dataset.WP.WithCap(4_000_000), dist: true, win: 500,
		n: 750_000, rate: 300_000},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// parts is the number of partial instances the spout's PKG edge routes
// over: in-process bolts, or partial nodes.
func (w workload) parts() int {
	if w.dist {
		return partialNodes
	}
	return partials
}

func (w workload) clock() clock {
	if w.rate > 0 {
		return newClock(int64(time.Second)/int64(w.rate), w.win)
	}
	return newClock(int64(time.Microsecond), w.win)
}

func (w workload) spec0() window.Spec {
	return window.Spec{Size: time.Duration(w.clock().size()), EveryTuples: everyTuples, Sources: 1}
}

// round is one measured pass of a tape through a fresh deployment.
type round struct {
	tuples   int
	windows  int
	failed   int
	setupNs  int64 // round start → first offer (tape, reference, nodes, build, dials)
	stNs     int64 // single-goroutine reference count of the tape
	wallNs   int64 // first offer → last result
	cpuNs    int64 // process user+sys CPU over the same interval
	lat      []int64
	imb      float64
	alloc    uint64
	gcs      uint32
	gcPause  uint64
	err      error
	src      *source
	counters map[string]float64 // per-layer counters of this round
	memPeak  uint64             // peak resident Go memory over the round, set-up included
}

// roundEnv carries what a round runner needs besides the workload.
type roundEnv struct {
	seed   uint64
	index  int
	traced bool
	spans  *spanLog
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// prepare builds a round's input and reference: the part of set-up
// that does not depend on the deployment.
func prepare(w workload, env roundEnv) (*tape, []digest, time.Duration) {
	tp := makeTape(w.spec, env.seed*1000+uint64(env.index), w.n)
	ref, st := reference(tp, w.clock())
	return tp, ref, st
}

// excluded reports whether window win may be closed only by
// end-of-stream: its last tuple lies within the final flush period of
// some partial instance, so the stream's last flushes, not a watermark,
// may close it. Such windows are checked but give no latency sample.
func excluded(w workload, win int) bool {
	return (win+1)*w.win > w.n-2*w.parts()*everyTuples
}

// finish fills the round's check and latency samples from the merged
// collector.
func finish(w workload, r *round, ref []digest, col *collector) {
	r.failed = compare(ref, col.got)
	if col.stray > 0 && r.failed == 0 {
		r.failed = 1
	}
	for win := range ref {
		if excluded(w, win) || col.last[win] == 0 {
			continue
		}
		r.lat = append(r.lat, col.last[win]-r.src.due(win))
	}
	if r.src.traced {
		for win := range ref {
			if col.last[win] != 0 {
				r.src.spans.add("window.result", r.src.due(win), col.last[win], r.src.winSpan[win], win, r.src.round)
			}
		}
	}
	r.counters["transport.results_per_frame"] = ratio(float64(col.res), float64(col.frames))
	r.src.tp = nil // the run keeps its rounds for the summary, not their tapes
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// imbalance is the paper's metric over a load vector: (max − mean) ÷ mean.
func imbalance(loads []int64) float64 {
	var max, sum int64
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(loads))
	return (float64(max) - mean) / mean
}

// measure brackets a round's measured interval with CPU and allocator
// readings.
type meter struct {
	cpu0 int64
	ms0  runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuNow()
	return m
}

func (m *meter) stop(r *round) {
	r.cpuNs = cpuNow() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - m.ms0.TotalAlloc
	r.gcs = ms.NumGC - m.ms0.NumGC
	r.gcPause = ms.PauseTotalNs - m.ms0.PauseTotalNs
}

// timedOp decorates a window plan so that each partial and final bolt
// instance it creates times its Execute calls (traced local runs).
type timedOp struct {
	*window.Plan
	part, fin *atomic.Int64
}

func (o timedOp) NewPartial() engine.Bolt { return &timedBolt{Bolt: o.Plan.NewPartial(), busy: o.part} }
func (o timedOp) NewFinal() engine.Bolt   { return &timedBolt{Bolt: o.Plan.NewFinal(), busy: o.fin} }

type timedBolt struct {
	engine.Bolt
	busy *atomic.Int64
}

func (b *timedBolt) Execute(t engine.Tuple, out engine.Emitter) {
	t0 := now()
	b.Bolt.Execute(t, out)
	b.busy.Add(now() - t0)
}

// WindowStats keeps the decorated bolt visible to Stats().Windows.
func (b *timedBolt) WindowStats() engine.WindowStats {
	return b.Bolt.(engine.WindowStatsSource).WindowStats()
}

// runLocal replays the tape through the in-process deployment:
// source → 4 PKG partials → final → sink bolt.
func runLocal(w workload, env roundEnv) round {
	t0 := now()
	tp, ref, st := prepare(w, env)
	c := w.clock()
	r := round{tuples: w.n, windows: len(ref), stNs: int64(st), counters: map[string]float64{}}
	src := &source{tp: tp, c: c, offer: make([]int64, len(ref)), traced: env.traced,
		spans: env.spans, round: env.index, winSpan: make([]int32, len(ref))}
	r.src = src
	col := newCollector(c, len(ref))

	plan := window.MustPlan(window.Count{}, w.spec0())
	var op engine.WindowedOp = plan
	var partBusy, finBusy atomic.Int64
	if env.traced {
		op = timedOp{Plan: plan, part: &partBusy, fin: &finBusy}
	}
	b := engine.NewBuilder("perf", hashSeed)
	b.AddSpout("src", func() engine.Spout { return src }, 1)
	b.WindowedAggregate("wc", op, partials).Input("src", window.SourceAware(engine.Partial()))
	b.AddBolt("sink", func() engine.Bolt {
		return engine.BoltFunc(func(t engine.Tuple, _ engine.Emitter) {
			if t.Tick {
				return
			}
			res := t.Values[0].(window.Result)
			col.add(res.Key, res.Start, res.Value.(int64), now())
		})
	}, 1).Input("wc", engine.Global())
	top, err := b.Build()
	if err != nil {
		r.err = err
		return r
	}
	rt := engine.NewRuntime(top, engine.Options{QueueSize: 2048})
	m := startMeter()
	done := make(chan error, 1)
	go func() { done <- rt.Run() }()
	select {
	case err = <-done:
	case <-time.After(roundTimeout):
		err = fmt.Errorf("round did not finish within %v", roundTimeout)
	}
	if err != nil {
		r.err = err
		return r
	}
	m.stop(&r)
	r.setupNs = src.first - t0
	r.wallNs = col.lastArrival() - src.first
	finish(w, &r, ref, col) // the sink sees no frames: results_per_frame stays 0

	stats := rt.Stats()
	r.imb = imbalance(stats.Loads("wc.partial"))
	ps, fs := plan.PartialStats(), plan.FinalStats()
	r.counters["window.partials_out"] = float64(ps.PartialsOut)
	r.counters["window.max_live"] = float64(ps.MaxLive)
	r.counters["window.late_dropped"] = float64(fs.LateDropped)
	r.counters["partial_busy_ns"] = float64(partBusy.Load())
	r.counters["final_busy_ns"] = float64(finBusy.Load())
	r.counters["final_partial_ns"] = float64(finBusy.Load()) // marks are timed with the merges
	r.counters["final_partials_in"] = float64(fs.Merged + fs.LateDropped)
	return r
}

// timedPartial decorates a partial node's handler, timing its batch
// dispatch and keeping the batch capability the worker looks for.
type timedPartial struct {
	transport.TupleBatchHandler
	busy  atomic.Int64
	spans *spanLog
	c     clock
	round int
}

func (h *timedPartial) HandleTupleBatch(ts []wire.Tuple) {
	t0 := now()
	h.TupleBatchHandler.HandleTupleBatch(ts)
	t1 := now()
	h.busy.Add(t1 - t0)
	win := -1
	if len(ts) > 0 {
		win = h.c.window(ts[0].EmitNanos)
	}
	h.spans.add("partial.batch", t0, t1, -1, win, h.round)
}

// timedFinal decorates a final node's handler, timing partial merges
// and the watermark advances that close windows, and keeping the push
// capability subscriptions need.
type timedFinal struct {
	transport.PushHandler
	busy, markNs atomic.Int64
	spans        *spanLog
	c            clock
	round        int
}

func (h *timedFinal) HandlePartial(p *wire.Partial) {
	t0 := now()
	h.PushHandler.HandlePartial(p)
	h.busy.Add(now() - t0)
}

func (h *timedFinal) HandleMark(m wire.Mark) {
	t0 := now()
	h.PushHandler.HandleMark(m)
	t1 := now()
	h.markNs.Add(t1 - t0)
	win := -1
	if !m.Final() && m.WM > h.c.base {
		win = h.c.window(m.WM) - 1
	}
	h.spans.add("final.mark", t0, t1, -1, win, h.round)
}

// runDist replays the tape through the fully distributed deployment:
// source → edge.Wire → 2 partial nodes → 2 final nodes → subscribers,
// every node a loopback TCP listener in this process.
func runDist(w workload, env roundEnv) round {
	t0 := now()
	tp, ref, st := prepare(w, env)
	c := w.clock()
	r := round{tuples: w.n, windows: len(ref), stNs: int64(st), counters: map[string]float64{}}
	var interval int64
	if w.rate > 0 {
		interval = int64(time.Second) / int64(w.rate)
	}
	src := &source{tp: tp, c: c, interval: interval, offer: make([]int64, len(ref)),
		traced: env.traced, spans: env.spans, round: env.index, winSpan: make([]int32, len(ref))}
	r.src = src

	var workers []*transport.Worker
	defer func() {
		for _, wk := range workers {
			_ = wk.Close() // loopback listeners of a finished round
		}
	}()
	listen := func(h transport.Handler) (string, error) {
		wk, err := transport.ListenHandler("127.0.0.1:0", h)
		if err != nil {
			return "", err
		}
		workers = append(workers, wk)
		return wk.Addr(), nil
	}
	fail := func(err error) round {
		r.err = err
		return r
	}

	faddrs := make([]string, finalNodes)
	fhs := make([]*window.FinalHandler, finalNodes)
	tfs := make([]*timedFinal, finalNodes)
	for i := range faddrs {
		fh, err := window.MustPlan(window.Count{}, w.spec0()).NewFinalHandler(partialNodes)
		if err != nil {
			return fail(err)
		}
		fhs[i] = fh
		var h transport.Handler = fh
		if env.traced {
			tfs[i] = &timedFinal{PushHandler: fh, spans: env.spans, c: c, round: env.index}
			h = tfs[i]
		}
		if faddrs[i], err = listen(h); err != nil {
			return fail(err)
		}
	}
	paddrs := make([]string, partialNodes)
	phs := make([]*window.PartialHandler, partialNodes)
	tps := make([]*timedPartial, partialNodes)
	for i := range paddrs {
		ph, err := window.MustPlan(window.Count{}, w.spec0()).NewPartialHandler(window.PartialHandlerOptions{
			ID: i, Nodes: partialNodes, FinalAddrs: faddrs, Seed: hashSeed,
		})
		if err != nil {
			return fail(err)
		}
		phs[i] = ph
		var h transport.Handler = ph
		if env.traced {
			tps[i] = &timedPartial{TupleBatchHandler: ph, spans: env.spans, c: c, round: env.index}
			h = tps[i]
		}
		if paddrs[i], err = listen(h); err != nil {
			return fail(err)
		}
	}
	cols := make([]*collector, finalNodes)
	subs := make([]*subscriber, finalNodes)
	for i, a := range faddrs {
		cols[i] = newCollector(c, len(ref))
		s, err := subscribe(a, cols[i])
		if err != nil {
			for _, s := range subs[:i] {
				s.conn.Close()
				<-s.done
			}
			return fail(err)
		}
		subs[i] = s
	}

	plan := window.MustPlan(window.Count{}, w.spec0())
	b := engine.NewBuilder("perf", hashSeed)
	b.AddSpout("src", func() engine.Spout { return src }, 1)
	b.WindowedAggregate("wc", plan, partials, engine.RemotePartialOpts(engine.RemotePartialConfig{
		Addrs:          paddrs,
		Window:         1024,
		MaxBatchTuples: 256,
		MaxBatchBytes:  32 << 10,
		Linger:         2 * time.Millisecond,
	})).Input("src", window.SourceAware(engine.Partial()))
	top, err := b.Build()
	if err == nil {
		rt := engine.NewRuntime(top, engine.Options{QueueSize: 2048})
		m := startMeter()
		deadline := time.Now().Add(roundTimeout)
		err = rt.Run()
		for _, s := range subs {
			if serr := s.wait(deadline); serr != nil && err == nil {
				err = serr
			}
		}
		m.stop(&r)
		if err == nil {
			var es engine.EdgeStats
			for _, e := range rt.Stats().Edges["wc.partial"] {
				es.Fold(e)
			}
			r.counters["edge.frames"] = float64(es.Frames)
			r.counters["edge.tuples"] = float64(es.Tuples)
			r.counters["edge.wait_ns"] = float64(es.WaitNs)
			r.counters["edge.retries"] = float64(es.Retries)
			r.counters["edge.failures"] = float64(es.Failures)
			r.counters["edge.forwarders"] = float64(len(rt.Stats().Edges["wc.partial"]))
		}
	} else {
		for _, s := range subs {
			s.conn.Close()
			<-s.done
		}
	}
	if err != nil {
		return fail(err)
	}
	r.setupNs = src.first - t0
	col := cols[0]
	col.merge(cols[1:]...)
	r.wallNs = col.lastArrival() - src.first
	finish(w, &r, ref, col)

	loads := make([]int64, len(paddrs))
	for i, nd := range obs.Poll(paddrs, "partial") {
		if nd.Err != nil {
			return fail(fmt.Errorf("stats %s: %w", nd.Addr, nd.Err))
		}
		loads[i] = nd.Count
	}
	r.imb = imbalance(loads)
	var partsOut, maxLive, late, hopFrames, hopMarks, hopRetries int64
	for _, ph := range phs {
		ws := ph.Stats()
		partsOut += ws.PartialsOut
		if ws.MaxLive > maxLive {
			maxLive = ws.MaxLive
		}
		late += ws.LateDropped
		es := ph.EdgeStats()
		hopFrames += es.Frames
		hopMarks += es.Marks
		hopRetries += es.Retries + es.Failures
	}
	var partsIn int64
	for _, fh := range fhs {
		fs := fh.Stats()
		late += fs.LateDropped
		partsIn += fs.Merged + fs.LateDropped
	}
	r.counters["window.partials_out"] = float64(partsOut)
	r.counters["window.max_live"] = float64(maxLive)
	r.counters["window.late_dropped"] = float64(late)
	r.counters["final_partials_in"] = float64(partsIn)
	r.counters["transport.final_hop_tuples_per_frame"] = ratio(float64(partsOut), float64(hopFrames+hopMarks))
	r.counters["transport.final_hop_retries"] = float64(hopRetries)
	if env.traced {
		var pb, fp, fm int64
		for _, h := range tps {
			pb += h.busy.Load()
		}
		for _, h := range tfs {
			fp += h.busy.Load()
			fm += h.markNs.Load()
		}
		r.counters["partial_busy_ns"] = float64(pb)
		r.counters["final_busy_ns"] = float64(fp + fm)
		r.counters["final_partial_ns"] = float64(fp)
	}
	return r
}
