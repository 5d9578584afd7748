package main

import "testing"

// TestSelfTestCatchesPlantedFaults runs the reference check's planted
// faults (a dropped, a duplicated and an altered result) on every
// workload's tape.
func TestSelfTestCatchesPlantedFaults(t *testing.T) {
	for _, w := range workloads {
		if err := selfTest(w, 7); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestQuartilesMatchPython checks compare mode's quartiles against
// statistics.quantiles(xs, n=4) for a few known inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
