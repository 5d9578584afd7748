package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracedRun measures the per-layer metrics: an untraced pass (the
// overhead reference and the allocator counters), a traced pass with
// timed emits, decorated handlers and spans, and the isolated layer
// loops on the workload's own tape.
func tracedRun(w workload, seed uint64, seconds int, tracePath string) result {
	half := time.Duration(seconds) * time.Second / 2
	plain, err := rounds(w, seed, half, false, nil, 0)
	if err != nil {
		return failedResult(w, plain, err)
	}
	spans := &spanLog{}
	traced, err := rounds(w, seed, half, true, spans, len(plain))
	if err != nil {
		return failedResult(w, append(plain, traced...), err)
	}
	tp, _, _ := prepare(w, roundEnv{seed: seed})
	lc, err := measureLayers(w, tp)
	if err != nil {
		return failedResult(w, append(plain, traced...), err)
	}
	if err := writeChrome(tracePath, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace not written:", err)
	} else {
		fmt.Printf("trace: %d spans (%d dropped) in %s\n", len(spans.spans), spans.dropped, tracePath)
	}

	u, t := summarize(plain), summarize(traced)
	var tuples, wall, emitNs, partBusy, finBusy, finPart, partsOut, partsIn, maxLive, late float64
	var edgeFrames, edgeTuples, edgeWait, edgeFwd, retries, failures, hopRetries float64
	var hopTPF, resPF []float64
	var lateHist hist
	for _, r := range traced {
		tuples += float64(r.tuples)
		wall += float64(r.wallNs)
		emitNs += float64(r.src.emitNs)
		lateHist.merge(&r.src.late)
		k := r.counters
		partBusy += k["partial_busy_ns"]
		finBusy += k["final_busy_ns"]
		finPart += k["final_partial_ns"]
		partsOut += k["window.partials_out"]
		partsIn += k["final_partials_in"]
		if k["window.max_live"] > maxLive {
			maxLive = k["window.max_live"]
		}
		late += k["window.late_dropped"]
		edgeFrames += k["edge.frames"]
		edgeTuples += k["edge.tuples"]
		edgeWait += k["edge.wait_ns"]
		edgeFwd += k["edge.forwarders"] * float64(r.wallNs)
		retries += k["edge.retries"]
		failures += k["edge.failures"]
		hopRetries += k["transport.final_hop_retries"]
		hopTPF = append(hopTPF, k["transport.final_hop_tuples_per_frame"])
		resPF = append(resPF, k["transport.results_per_frame"])
	}
	var alloc, gcs, pause, st []float64
	for _, r := range plain {
		alloc = append(alloc, float64(r.alloc)/float64(r.tuples))
		gcs = append(gcs, float64(r.gcs))
		pause = append(pause, float64(r.gcPause)/1e6)
		st = append(st, float64(r.tuples)/(float64(r.stNs)/1e9))
	}

	partInst, finInst := float64(partials), 1.0
	if w.dist {
		partInst, finInst = partialNodes, finalNodes
	}
	// The budget sums the isolated costs on the workload's path. On the
	// distributed path the loopback edge already contains route and the
	// tuple codec.
	sum := lc.hash + lc.route + lc.partial + lc.final*lc.partialsPerTuple
	if w.dist {
		sum = lc.hash + lc.loopback + lc.partial + (lc.partialCodec+lc.final)*lc.partialsPerTuple
	}
	overhead := 1 - t.tps/u.tps
	if w.rate > 0 {
		// The open loop's throughput is pinned to the offered rate: its
		// tracing cost shows in CPU per tuple instead.
		overhead = 1 - u.cpu/t.cpu
	}
	windows, failed := u.windows+t.windows, u.failed+t.failed

	printBudget(w, lc, sum, u.cpu)
	return result{
		Correct:   failed == 0,
		Attempted: windows,
		Failed:    failed,
		Metrics: map[string]metric{
			"engine.emit_ns_per_tuple":             {ratio(emitNs, tuples), "ns"},
			"engine.emit_busy_frac":                {ratio(emitNs, wall), "frac"},
			"hash.ns_per_tuple":                    {lc.hash, "ns"},
			"route.ns_per_tuple":                   {lc.route, "ns"},
			"window.partial_ns_per_tuple":          {lc.partial, "ns"},
			"window.final_ns_per_partial":          {lc.final, "ns"},
			"window.partials_per_tuple":            {ratio(partsOut, tuples), "ratio"},
			"window.max_live":                      {maxLive, "count"},
			"window.late_dropped":                  {late, "count"},
			"window.partial_node_busy_frac":        {ratio(partBusy, wall*partInst), "frac"},
			"window.partial_node_ns_per_tuple":     {ratio(partBusy, tuples), "ns"},
			"window.final_node_busy_frac":          {ratio(finBusy, wall*finInst), "frac"},
			"window.final_node_ns_per_partial":     {ratio(finPart, partsIn), "ns"},
			"wire.tuple_codec_ns":                  {lc.tupleCodec, "ns"},
			"wire.bytes_per_tuple":                 {lc.bytesPerTuple, "bytes"},
			"wire.partial_codec_ns":                {lc.partialCodec, "ns"},
			"wire.bytes_per_partial":               {lc.bytesPerPart, "bytes"},
			"edge.loopback_ns_per_tuple":           {lc.loopback, "ns"},
			"edge.tuples_per_frame":                {ratio(edgeTuples, edgeFrames), "ratio"},
			"edge.stall_wait_frac":                 {ratio(edgeWait, edgeFwd), "frac"},
			"edge.retries":                         {retries, "count"},
			"edge.failures":                        {failures, "count"},
			"transport.final_hop_tuples_per_frame": {median(hopTPF), "ratio"},
			"transport.final_hop_retries":          {hopRetries, "count"},
			"transport.results_per_frame":          {median(resPF), "ratio"},
			"gen.late_p99_ms":                      {float64(lateHist.quantile(0.99)) / 1e6, "ms"},
			"go.alloc_bytes_per_tuple":             {median(alloc), "bytes"},
			"go.gc_cycles":                         {median(gcs), "count"},
			"go.gc_pause_ms":                       {median(pause), "ms"},
			"budget.sum_ns_per_tuple":              {sum, "ns"},
			"budget.residual_ns_per_tuple":         {u.cpu - sum, "ns"},
			"trace.overhead_frac":                  {overhead, "frac"},
			"baseline.st_tps":                      {median(st), "tuples/s"},
			"imbalance_frac":                       {u.imb, "frac"},
			"error_rate":                           {ratio(float64(failed), float64(windows)), "frac"},
		},
	}
}

// printBudget prints the layer budget table: isolated ns per tuple of
// each layer on the workload's path, their sum, the measured CPU per
// tuple and the residual the isolated loops do not explain.
func printBudget(w workload, lc layerCosts, sum, cpu float64) {
	row := func(name string, v float64, on bool) {
		mark := " "
		if on {
			mark = "+"
		}
		fmt.Printf("  %s %-34s %10.1f\n", mark, name, v)
	}
	fmt.Printf("layer budget, %s (ns per input tuple; + marks the summed path)\n", w.name)
	row("hash.String64", lc.hash, true)
	row("route PKG.Route", lc.route, !w.dist)
	row("wire tuple codec", lc.tupleCodec, false)
	row("edge.Wire loopback (CPU)", lc.loopback, w.dist)
	row("window partial bolt", lc.partial, true)
	row(fmt.Sprintf("wire partial codec × %.3f", lc.partialsPerTuple), lc.partialCodec*lc.partialsPerTuple, w.dist)
	row(fmt.Sprintf("window final bolt × %.3f", lc.partialsPerTuple), lc.final*lc.partialsPerTuple, true)
	fmt.Printf("    %-34s %10.1f\n", "sum", sum)
	fmt.Printf("    %-34s %10.1f\n", "cpu_ns_per_tuple (untraced)", cpu)
	fmt.Printf("    %-34s %10.1f\n", "residual", cpu-sum)
}

// writeChrome writes the spans as a Chrome trace_event JSON array, one
// row per span name; args carry the span id, its parent, its window and
// its round.
func writeChrome(path string, l *spanLog) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(l.spans))
	for i, s := range l.spans {
		tid, ok := tids[s.name]
		if !ok {
			tid = len(tids) + 1
			tids[s.name] = tid
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: tid,
			Args: map[string]any{"id": i, "parent": s.parent, "window": s.win, "round": s.round}})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
