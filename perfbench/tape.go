package main

import (
	"strconv"
	"time"

	"pkgstream/internal/dataset"
	"pkgstream/internal/hash"
	"pkgstream/internal/route"
)

// tape is one round's pre-generated input: a key table interned once
// and the stream as indices into it. The index slice holds no pointers,
// so the tape adds no work to the collector's mark phase, and no
// generator work happens while the system is measured.
type tape struct {
	keys   []string // interned key table
	hashes []uint64 // route.KeyHash of each key (reference and layer loops only)
	idx    []uint32 // tuple i carries keys[idx[i]]
}

// makeTape draws n messages of spec's stream for seed and interns their
// keys.
func makeTape(spec dataset.Spec, seed uint64, n int) *tape {
	st := spec.Open(seed)
	t := &tape{idx: make([]uint32, n)}
	ids := map[uint64]uint32{}
	var buf []byte
	for i := 0; i < n; i++ {
		m, ok := st.Next()
		if !ok {
			panic("perfbench: dataset stream shorter than the tape")
		}
		id, seen := ids[m.Key]
		if !seen {
			id = uint32(len(t.keys))
			ids[m.Key] = id
			buf = strconv.AppendUint(append(buf[:0], 'k'), m.Key, 36)
			k := string(buf)
			t.keys = append(t.keys, k)
			t.hashes = append(t.hashes, route.KeyHash(k))
		}
		t.idx[i] = id
	}
	return t
}

// digest summarizes one window's results: how many (key, count) results
// it has, the sum of their counts, and an order-independent hash of the
// (key, window, count) triples. A dropped, duplicated or altered result
// changes at least one field.
type digest struct {
	n   int64
	sum int64
	h   uint64
}

// resultHash hashes one (key, window start, count) result.
func resultHash(keyHash uint64, start, count int64) uint64 {
	return hash.Mix64(keyHash^hash.Fmix64(uint64(start)), uint64(count))
}

func (d *digest) add(keyHash uint64, start, count int64) {
	d.n++
	d.sum += count
	d.h += resultHash(keyHash, start, count)
}

func (d *digest) merge(o digest) {
	d.n += o.n
	d.sum += o.sum
	d.h += o.h
}

// clock is the event-time layout of a round: tuple i has event time
// base + i·tick and window w holds tuples [w·win, (w+1)·win).
type clock struct {
	base int64 // a multiple of the window size, so windows align on tuples
	tick int64 // event-time ns per tuple
	win  int   // tuples per window
}

func (c clock) size() int64         { return int64(c.win) * c.tick }
func (c clock) at(i int) int64      { return c.base + int64(i)*c.tick }
func (c clock) start(w int) int64   { return c.base + int64(w)*c.size() }
func (c clock) window(ts int64) int { return int((ts - c.base) / c.size()) }
func (c clock) windows(n int) int   { return (n + c.win - 1) / c.win }
func newClock(tick int64, win int) clock {
	size := tick * int64(win)
	return clock{base: 1000 * size, tick: tick, win: win}
}

// reference computes every window's digest from the tape with a
// single-goroutine map count, and returns how long the counting took:
// the single-threaded baseline the stream-processing numbers are read
// against.
func reference(t *tape, c clock) ([]digest, time.Duration) {
	n := len(t.idx)
	ref := make([]digest, c.windows(n))
	counts := map[string]int64{}
	var counted time.Duration
	for w := range ref {
		lo, hi := w*c.win, (w+1)*c.win
		if hi > n {
			hi = n
		}
		t0 := time.Now()
		for _, k := range t.idx[lo:hi] {
			counts[t.keys[k]]++
		}
		counted += time.Since(t0)
		start := c.start(w)
		for k, cnt := range counts {
			ref[w].add(route.KeyHash(k), start, cnt)
		}
		clear(counts)
	}
	return ref, counted
}

// compare counts the windows whose received digest differs from the
// reference.
func compare(ref, got []digest) (failed int) {
	for w := range ref {
		if w >= len(got) || got[w] != ref[w] {
			failed++
		}
	}
	return failed
}
