package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// This file is compare mode: it reads two recorded result sets (JSONL
// written with --record) and prints, per workload and metric, each
// side's median, quartiles and sample count, the change of the median,
// and a verdict against the metric's bound in BENCHMARK.json.

type recorded struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// samples maps "workload\tmetric" to the values of every run.
type samples map[string][]float64

func readSet(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read only
	out := samples{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r recorded
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, m := range r.Result.Metrics {
			k := r.Workload + "\t" + name
			out[k] = append(out[k], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the
// exclusive method) for at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func compareSets(out io.Writer, specPath, pathA, pathB string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	bound := map[string]float64{}
	lower := map[string]bool{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
		lower[m.Name] = m.Better == "lower"
	}
	for _, m := range spec.PerLayer {
		bound[m.Name] = math.NaN()
		lower[m.Name] = m.Better == "lower"
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "%-44s %4s %12s %12s %12s | %4s %12s %12s %12s | %8s %7s  %s\n",
		"workload/metric", "nA", "q1A", "medA", "q3A", "nB", "q1B", "medB", "q3B", "change", "spread", "verdict")
	for _, k := range keys {
		xa, xb := a[k], b[k]
		a1, am, a3 := quartiles(xa)
		b1, bm, b3 := quartiles(xb)
		_, name, _ := strings.Cut(k, "\t")
		change := 0.0
		if am != 0 {
			change = (bm - am) / math.Abs(am)
		}
		worse := change
		if !lower[name] {
			worse = -change
		}
		spread := 0.0
		if am != 0 {
			spread = math.Max((a3-a1)/math.Abs(am), (b3-b1)/math.Abs(am))
		}
		verdict := "per-layer (no bound)"
		if bd, ok := bound[name]; ok && !math.IsNaN(bd) {
			switch {
			case spread > bd && !separated(xa, xb, lower[name]):
				verdict = fmt.Sprintf("unresolved (spread > bound %.2f)", bd)
			case worse > bd:
				verdict = fmt.Sprintf("WORSE (bound %.2f)", bd)
			case -worse > spread:
				verdict = "better"
			default:
				verdict = "within bound"
			}
		}
		fmt.Fprintf(out, "%-44s %4d %12.4g %12.4g %12.4g | %4d %12.4g %12.4g %12.4g | %+7.2f%% %6.2f%%  %s\n",
			strings.Replace(k, "\t", "/", 1), len(xa), a1, am, a3, len(xb), b1, bm, b3, 100*change, 100*spread, verdict)
	}
	return nil
}

// separated reports whether every B run is better than every A run.
func separated(xa, xb []float64, lowerBetter bool) bool {
	sa := append([]float64(nil), xa...)
	sb := append([]float64(nil), xb...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if lowerBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}
