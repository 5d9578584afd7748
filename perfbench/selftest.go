package main

import "fmt"

// selfTest checks that the reference check catches the three faults a
// run can show: a dropped result, a duplicated result and an altered
// result. It builds the exact results of a few windows from a small
// tape, confirms they match the reference, then plants each fault.
func selfTest(w workload, seed uint64) error {
	c := w.clock()
	tp := makeTape(w.spec, seed, 3*c.win)
	ref, _ := reference(tp, c)

	type res struct {
		key          string
		start, count int64
	}
	var results []res
	for win := range ref {
		counts := map[uint32]int64{}
		for _, k := range tp.idx[win*c.win : (win+1)*c.win] {
			counts[k]++
		}
		for k, n := range counts {
			results = append(results, res{tp.keys[k], c.start(win), n})
		}
	}
	check := func(rs []res) int {
		col := newCollector(c, len(ref))
		for _, r := range rs {
			col.add(r.key, r.start, r.count, 1)
		}
		return compare(ref, col.got)
	}
	if n := check(results); n != 0 {
		return fmt.Errorf("exact results differ from the reference in %d windows", n)
	}
	mid := len(results) / 2
	dropped := append(append([]res{}, results[:mid]...), results[mid+1:]...)
	duplicated := append(append([]res{}, results...), results[mid])
	altered := append([]res{}, results...)
	altered[mid].count++
	for _, f := range []struct {
		name string
		rs   []res
	}{{"dropped", dropped}, {"duplicated", duplicated}, {"altered", altered}} {
		if check(f.rs) == 0 {
			return fmt.Errorf("a %s result went unnoticed", f.name)
		}
	}
	return nil
}
