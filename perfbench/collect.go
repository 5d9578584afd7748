package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"time"

	"pkgstream/internal/route"
	"pkgstream/internal/wire"
)

// epoch anchors every timestamp the benchmark takes: now() is monotonic
// nanoseconds since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// collector folds arriving results into per-window digests and stamps
// each window's last arrival. One collector belongs to one goroutine.
type collector struct {
	c      clock
	got    []digest
	last   []int64 // arrival of the window's last result (0: none yet)
	stray  int64   // results for windows outside the tape
	res    int64   // results received
	frames int64   // pushed Reply frames they arrived in
}

func newCollector(c clock, windows int) *collector {
	return &collector{c: c, got: make([]digest, windows), last: make([]int64, windows)}
}

func (k *collector) add(key string, start, count, at int64) {
	k.res++
	w := k.c.window(start)
	if start < k.c.base || w >= len(k.got) || k.c.start(w) != start {
		k.stray++
		return
	}
	k.got[w].add(route.KeyHash(key), start, count)
	if at > k.last[w] {
		k.last[w] = at
	}
}

// merge folds other collectors into k.
func (k *collector) merge(others ...*collector) {
	for _, o := range others {
		for w := range o.got {
			k.got[w].merge(o.got[w])
			if o.last[w] > k.last[w] {
				k.last[w] = o.last[w]
			}
		}
		k.stray += o.stray
		k.res += o.res
		k.frames += o.frames
	}
}

// lastArrival is the latest result arrival of the round.
func (k *collector) lastArrival() int64 {
	var m int64
	for _, t := range k.last {
		if t > m {
			m = t
		}
	}
	return m
}

// subscriber is a push subscription to one final node: it writes a
// Subscribe frame and folds every pushed result into its collector,
// stamping the results of each Reply frame with the frame's arrival.
type subscriber struct {
	conn net.Conn
	col  *collector
	done chan error
}

func subscribe(addr string, col *collector) (*subscriber, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("subscribe %s: %w", addr, err)
	}
	if _, err := conn.Write(wire.AppendSubscribe(nil, wire.Subscribe{})); err != nil {
		conn.Close()
		return nil, fmt.Errorf("subscribe %s: %w", addr, err)
	}
	s := &subscriber{conn: conn, col: col, done: make(chan error, 1)}
	go func() { s.done <- s.read() }()
	return s, nil
}

func (s *subscriber) read() error {
	r := bufio.NewReaderSize(s.conn, 1<<17)
	var payload []byte
	for {
		kind, p, err := wire.ReadFrame(r, payload)
		if err != nil {
			return err
		}
		at := now()
		payload = p
		if kind != wire.KindReply {
			return fmt.Errorf("final node pushed a %v frame", kind)
		}
		rep, err := wire.DecodeReply(p)
		if err != nil {
			return err
		}
		s.col.frames++
		for i := range rep.Results {
			r := &rep.Results[i]
			s.col.add(r.Key, r.Start, r.Value, at)
		}
		if rep.Done {
			return nil
		}
	}
}

// wait blocks until the node reports Done, the connection fails, or
// the deadline passes; the connection is closed on return, which also
// ends the reader.
func (s *subscriber) wait(deadline time.Time) error {
	defer s.conn.Close()
	select {
	case err := <-s.done:
		return err
	case <-time.After(time.Until(deadline)):
		s.conn.Close()
		<-s.done
		return fmt.Errorf("results still arriving at the deadline")
	}
}

// hist is a log-linear histogram of non-negative nanosecond values:
// 16 linear sub-buckets per power of two, about 6% bucket error.
type hist struct {
	b [64 * 16]int64
	n int64
}

func histIndex(v int64) int {
	if v < 16 {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := 63 - bits.LeadingZeros64(uint64(v)) // v in [2^e, 2^(e+1)), e ≥ 4
	return (e-3)*16 + int(uint64(v)>>(uint(e)-4)&15)
}

func histValue(i int) int64 {
	if i < 16 {
		return int64(i)
	}
	e := i/16 + 3
	return (16 + int64(i%16)) << uint(e-4)
}

func (h *hist) add(v int64) {
	h.b[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i := range h.b {
		h.b[i] += o.b[i]
	}
	h.n += o.n
}

// quantile returns the lower edge of the bucket holding quantile q.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen int64
	for i, c := range h.b {
		seen += c
		if seen > rank {
			return histValue(i)
		}
	}
	return 0
}

// spanLog keeps the traced run's spans in memory until exit. A span
// records a layer-boundary interval; spans of one window share win.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	dropped int64
}

type span struct {
	name       string
	start, end int64
	parent     int32 // index of the causing span, -1 for none
	win        int32 // window id, -1 for none
	round      int32
}

const maxSpans = 400_000

// add records a span and returns its id (-1 once the log is full).
func (l *spanLog) add(name string, start, end int64, parent int32, win, round int) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: start, end: end,
		parent: parent, win: int32(win), round: int32(round)})
	return int32(len(l.spans) - 1)
}
