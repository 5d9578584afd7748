package main

import (
	"fmt"
	"sort"
	"time"

	"pkgstream/internal/edge"
	"pkgstream/internal/engine"
	"pkgstream/internal/hash"
	"pkgstream/internal/metrics"
	"pkgstream/internal/route"
	"pkgstream/internal/transport"
	"pkgstream/internal/window"
	"pkgstream/internal/wire"
)

// This file times isolated loops through each layer's public
// functions, on the workload's own tape, for the traced run's budget.

// sink is a package-level destination for loop results, so the
// compiler cannot drop the measured calls.
var sink uint64

// repeat runs pass until at least minDur has elapsed over at least
// three passes and returns the median pass duration.
func repeat(minDur time.Duration, pass func()) time.Duration {
	var ds []time.Duration
	var total time.Duration
	for len(ds) < 3 || total < minDur {
		t0 := time.Now()
		pass()
		d := time.Since(t0)
		ds = append(ds, d)
		total += d
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

const loopTime = 300 * time.Millisecond

// layerCosts are the isolated per-unit costs in ns.
type layerCosts struct {
	hash, route, partial, final   float64
	tupleCodec, partialCodec      float64
	bytesPerTuple, bytesPerPart   float64
	loopback                      float64
	partialsPerTuple, partialsCnt float64
}

func measureLayers(w workload, tp *tape) (layerCosts, error) {
	var lc layerCosts
	n := len(tp.idx)
	c := w.clock()
	perTuple := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }

	// hash: the key hash every routed tuple pays once.
	lc.hash = perTuple(repeat(loopTime, func() {
		var x uint64
		for _, k := range tp.idx {
			x ^= hash.String64(tp.keys[k], 0)
		}
		sink += x
	}))

	// route: PKG over the workload's destinations with a live load view.
	lc.route = perTuple(repeat(loopTime, func() {
		view := metrics.NewLoad(w.parts())
		pkg := route.NewPKG(w.parts(), 2, hashSeed, view)
		for _, k := range tp.idx {
			view.Add(pkg.Route(tp.hashes[k]))
		}
		sink += uint64(view.Max())
	}))

	// window partial and final bolts, driven directly. The tape is
	// pre-routed over the partial instances so each bolt sees the share
	// of the stream the deployment gives it; marks reach every instance.
	ps := w.parts()
	dest := make([]uint8, n)
	{
		view := metrics.NewLoad(ps)
		pkg := route.NewPKG(ps, 2, hashSeed, view)
		for i, k := range tp.idx {
			d := pkg.Route(tp.hashes[k])
			view.Add(d)
			dest[i] = uint8(d)
		}
	}
	tuples := make([]engine.Tuple, n)
	for i, k := range tp.idx {
		tuples[i] = engine.Tuple{Key: tp.keys[k], KeyHash: tp.hashes[k], EmitNanos: c.at(i)}
	}
	var stream recorder
	partialPass := func(rec *recorder) {
		plan := window.MustPlan(window.Count{}, w.spec0())
		bolts := make([]engine.Bolt, ps)
		for i := range bolts {
			bolts[i] = plan.NewPartial()
			bolts[i].Prepare(&engine.Context{Component: "partial", Index: i, Parallelism: ps})
		}
		for i := range tuples {
			bolts[dest[i]].Execute(tuples[i], rec)
			if (i+1)%markEvery == 0 || i+1 == n {
				m := window.SourceMark(0, c.at(i+1))
				for _, b := range bolts {
					b.Execute(m, rec)
				}
			}
		}
		for _, b := range bolts {
			b.Cleanup(rec)
		}
	}
	partialPass(&stream) // the partial stream the final bolt is fed below
	lc.partial = perTuple(repeat(loopTime, func() {
		var count recorder
		count.countOnly = true
		partialPass(&count)
	}))
	lc.partialsCnt = float64(stream.data)
	lc.partialsPerTuple = lc.partialsCnt / float64(n)

	var results recorder
	results.countOnly = true
	dFinal := repeat(loopTime, func() {
		b := window.MustPlan(window.Count{}, w.spec0()).NewFinal()
		b.Prepare(&engine.Context{Component: "final", Parallelism: 1})
		for _, t := range stream.ts {
			b.Execute(t, &results)
		}
		b.Cleanup(&results)
	})
	lc.final = float64(dFinal.Nanoseconds()) / lc.partialsCnt

	// wire tuple codec: 256-tuple batches, encode then decode.
	const batch = 256
	wts := make([]wire.Tuple, n)
	for i, k := range tp.idx {
		wts[i] = wire.Tuple{KeyHash: tp.hashes[k], Key: tp.keys[k], EmitNanos: c.at(i)}
	}
	var buf []byte
	var dec []wire.Tuple
	var bytes int
	var codecErr error
	lc.tupleCodec = perTuple(repeat(loopTime, func() {
		bytes = 0
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			var err error
			if buf, err = wire.AppendTupleBatch(buf[:0], wts[lo:hi]); err != nil {
				codecErr = err
				return
			}
			if dec, err = wire.DecodeTupleBatch(buf[wire.HeaderSize:], dec); err != nil {
				codecErr = err
				return
			}
			bytes += len(buf)
		}
	}))
	if codecErr != nil {
		return lc, fmt.Errorf("tuple codec: %w", codecErr)
	}
	lc.bytesPerTuple = float64(bytes) / float64(n)

	// wire partial codec over the same flush rule's partials: each
	// instance's (key, window) counts per everyTuples of its own tuples.
	wps := emulatePartials(tp, c, dest, ps)
	var p wire.Partial
	lc.partialCodec = float64(repeat(loopTime, func() {
		bytes = 0
		for i := range wps {
			buf = wire.AppendPartial(buf[:0], &wps[i])
			if err := wire.DecodePartial(buf[wire.HeaderSize:], &p); err != nil {
				codecErr = err
				return
			}
			bytes += len(buf)
		}
	}).Nanoseconds()) / float64(len(wps))
	if codecErr != nil {
		return lc, fmt.Errorf("partial codec: %w", codecErr)
	}
	lc.bytesPerPart = float64(bytes) / float64(len(wps))

	// edge: the batched, credit-flow-controlled wire edge to loopback
	// counting nodes, in process CPU per tuple (sender and receivers).
	var err error
	if lc.loopback, err = loopback(wts); err != nil {
		return lc, fmt.Errorf("edge loopback: %w", err)
	}
	return lc, nil
}

// recorder is the emitter the isolated bolts emit into.
type recorder struct {
	countOnly bool
	ts        []engine.Tuple
	data      int64
}

func (r *recorder) Emit(t engine.Tuple) {
	if !t.Tick {
		r.data++
	}
	if !r.countOnly {
		r.ts = append(r.ts, t)
	}
}

// emulatePartials reproduces the partial stream's shape for the codec
// loop: per instance, one partial per (key, window) per flush period.
func emulatePartials(tp *tape, c clock, dest []uint8, ps int) []wire.Partial {
	type slot struct {
		key   uint32
		start int64
	}
	live := make([]map[slot]int64, ps)
	since := make([]int, ps)
	for i := range live {
		live[i] = map[slot]int64{}
	}
	var out []wire.Partial
	flush := func(d int) {
		for s, cnt := range live[d] {
			out = append(out, wire.Partial{KeyHash: tp.hashes[s.key], Key: tp.keys[s.key],
				Start: s.start, Count: cnt})
		}
		clear(live[d])
		since[d] = 0
	}
	for i, k := range tp.idx {
		d := int(dest[i])
		ts := c.at(i)
		live[d][slot{k, ts - (ts-c.base)%c.size()}]++
		if since[d]++; since[d] >= everyTuples {
			flush(d)
		}
	}
	for d := range live {
		flush(d)
	}
	return out
}

// loopback sends the tape's tuples over edge.DialWire to counting
// nodes with the deployment's edge settings and returns process CPU ns
// per tuple until every node has absorbed its share.
func loopback(wts []wire.Tuple) (float64, error) {
	var workers []*transport.Worker
	defer func() {
		for _, wk := range workers {
			_ = wk.Close() // loopback counting nodes
		}
	}()
	addrs := make([]string, partialNodes)
	for i := range addrs {
		wk, err := transport.ListenHandler("127.0.0.1:0", transport.NewCountHandler())
		if err != nil {
			return 0, err
		}
		workers = append(workers, wk)
		addrs[i] = wk.Addr()
	}
	// One pass: dial, send the tape, close, wait until it is absorbed.
	var sent int64
	pass := func() (int64, error) {
		c0 := cpuNow()
		e, err := edge.DialWire(addrs, edge.WireOptions{Seed: hashSeed, Window: 1024,
			MaxBatchTuples: 256, MaxBatchBytes: 32 << 10, Linger: 2 * time.Millisecond})
		if err != nil {
			return 0, err
		}
		for i := range wts {
			if err := e.SendTuple(&wts[i]); err != nil {
				e.Close()
				return 0, err
			}
		}
		if err := e.Close(); err != nil {
			return 0, err
		}
		sent += int64(len(wts))
		deadline := time.Now().Add(roundTimeout)
		for {
			var got int64
			for _, wk := range workers {
				got += wk.Processed()
			}
			if got >= sent {
				return cpuNow() - c0, nil
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("nodes absorbed %d of %d tuples", got, sent)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	var cpus []int64
	for t0 := time.Now(); len(cpus) < 3 || time.Since(t0) < loopTime; {
		cpu, err := pass()
		if err != nil {
			return 0, err
		}
		cpus = append(cpus, cpu)
	}
	sort.Slice(cpus, func(i, j int) bool { return cpus[i] < cpus[j] })
	return float64(cpus[len(cpus)/2]) / float64(len(wts)), nil
}
