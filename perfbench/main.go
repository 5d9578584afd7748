// Command perfbench is the repository's benchmark: it replays
// pre-generated key tapes drawn from the paper's Table I datasets
// through the PKG windowed wordcount, in process and across loopback
// TCP nodes, checks every window's results against a reference computed
// from the tape, and prints the metrics BENCHMARK.json names.
//
//	perfbench --workload wp-local --seed 1 --seconds 10 --trace 0
//	perfbench --workload wp-local --seed 1 --seconds 10 --trace 1 --record runs.jsonl
//	perfbench --compare before.jsonl after.jsonl
//
// The last line of standard output is one JSON object: correct,
// attempted and failed (windows), and metrics. --trace 0 reports the
// end-to-end metrics from untraced rounds; --trace 1 reports the
// per-layer metrics from a traced pass, isolated layer loops and an
// untraced pass to compare against, and writes the traced pass's spans
// as Chrome trace_event JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// runLimit bounds a whole invocation; past it the run reports every
// window as failed.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: per-layer metrics from a traced run")
	record := flag.String("record", "", "append {workload, seed, trace, result} to this JSONL file")
	traceDir := flag.String("trace-dir", "", "directory for the traced run's Chrome trace (default $CARGO_TARGET_DIR/traces)")
	compareMode := flag.Bool("compare", false, "compare two recorded result sets: --compare A.jsonl B.jsonl")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two result files"))
		}
		if err := compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*workloadName)
	if err != nil {
		fatal(err)
	}
	if err := selfTest(w, *seed); err != nil {
		fatal(fmt.Errorf("reference self-test: %w", err))
	}
	go watchdog(w)

	var res result
	if *traceFlag == 1 {
		dir := *traceDir
		if dir == "" {
			dir = filepath.Join(envOr("CARGO_TARGET_DIR", ".bench_build"), "traces")
		}
		res = tracedRun(w, *seed, *seconds, filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, *seed)))
	} else {
		res = untracedRun(w, *seed, *seconds)
	}
	emit(res, *record, w.name, *seed, *traceFlag)
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the result line and appends it to the record file.
func emit(res result, record, name string, seed uint64, traced int) {
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if record != "" {
		rec, err := json.Marshal(struct {
			Workload string `json:"workload"`
			Seed     uint64 `json:"seed"`
			Trace    int    `json:"trace"`
			Result   result `json:"result"`
		}{name, seed, traced, res})
		if err != nil {
			fatal(err)
		}
		f, err := os.OpenFile(record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		if _, err := f.Write(append(rec, '\n')); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Println(string(line))
}

// watchdog reports a hung run: every window counts as failed.
func watchdog(w workload) {
	time.Sleep(runLimit)
	fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", w.name, runLimit)
	windows := w.clock().windows(w.n)
	fmt.Printf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`+"\n", windows, windows)
	os.Exit(1)
}

// rounds runs fresh deployments until the measured time reaches budget
// (at least three rounds).
func rounds(w workload, seed uint64, budget time.Duration, traced bool, spans *spanLog, first int) ([]round, error) {
	run := runLocal
	if w.dist {
		run = runDist
	}
	var out []round
	var spent time.Duration
	for i := first; len(out) < 3 || spent < budget; i++ {
		// Start every round from the same heap, with freed memory
		// returned to the OS, so a round's memory peak is its own.
		debug.FreeOSMemory()
		mem := startMemPeak()
		r := run(w, roundEnv{seed: seed, index: i, traced: traced, spans: spans})
		r.memPeak = mem.end()
		if r.err != nil {
			return out, fmt.Errorf("round %d: %w", i, r.err)
		}
		out = append(out, r)
		spent += time.Duration(r.wallNs)
		fmt.Printf("round %d: %d tuples in %.3fs, setup %.3fs, peak %.1f MB, %d/%d windows differ\n",
			i, r.tuples, float64(r.wallNs)/1e9, float64(r.setupNs)/1e9, float64(r.memPeak)/(1<<20), r.failed, r.windows)
	}
	return out, nil
}

// summary aggregates rounds into the end-to-end metrics.
type summary struct {
	tps, cpu, setup, imb, mem float64
	p50, p99                  float64
	samples                   int
	windows, failed           int
}

func summarize(rs []round) summary {
	var s summary
	var tps, cpu, setup, imb, mem, p50, p99 []float64
	for i, r := range rs {
		tps = append(tps, float64(r.tuples)/(float64(r.wallNs)/1e9))
		cpu = append(cpu, float64(r.cpuNs)/float64(r.tuples))
		setup = append(setup, float64(r.setupNs)/1e9)
		imb = append(imb, r.imb)
		mem = append(mem, float64(r.memPeak)/(1<<20))
		// A round's percentiles come from its own windows; the run
		// reports their medians, since a p99 from one pass swings with
		// the few scheduling stalls that pass happened to hit.
		slices.Sort(r.lat)
		p50 = append(p50, float64(rank(r.lat, 0.50))/1e6)
		p99 = append(p99, float64(rank(r.lat, 0.99))/1e6)
		if i == 0 || len(r.lat) < s.samples {
			s.samples = len(r.lat)
		}
		s.windows += r.windows
		s.failed += r.failed
	}
	s.tps, s.cpu, s.setup, s.imb, s.mem = median(tps), median(cpu), median(setup), median(imb), median(mem)
	s.p50, s.p99 = median(p50), median(p99)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rank is the nearest-rank quantile of sorted samples.
func rank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// failedResult is the result of a run that could not finish its rounds.
func failedResult(w workload, rs []round, err error) result {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	n := 0
	for _, r := range rs {
		n += r.windows
	}
	n += w.clock().windows(w.n) // the round that failed
	return result{Correct: false, Attempted: n, Failed: n, Metrics: map[string]metric{}}
}

func untracedRun(w workload, seed uint64, seconds int) result {
	rs, err := rounds(w, seed, time.Duration(seconds)*time.Second, false, nil, 0)
	if err != nil {
		return failedResult(w, rs, err)
	}
	s := summarize(rs)
	fmt.Printf("%s: %d rounds, at least %d latency samples per round (windows closed by end-of-stream excluded)\n",
		w.name, len(rs), s.samples)
	return result{
		Correct:   s.failed == 0,
		Attempted: s.windows,
		Failed:    s.failed,
		Metrics: map[string]metric{
			"throughput_tps":   {s.tps, "tuples/s"},
			"cpu_ns_per_tuple": {s.cpu, "ns"},
			"result_p50_ms":    {s.p50, "ms"},
			"result_p99_ms":    {s.p99, "ms"},
			"peak_rss_mb":      {s.mem, "MB"},
			"setup_s":          {s.setup, "s"},
		},
	}
}
