// Package transport is the receiving side of partial key grouping
// across real network boundaries: worker processes listen on TCP and
// dispatch every decoded frame to a pluggable Handler — the classic
// partial counter (CountHandler), a hosted windowed partial or final
// stage (window.PartialHandler, window.FinalHandler), or any custom
// one. The sending side is internal/edge.Wire, the one routed,
// credit-flow-controlled sender for both the spout → partial and the
// partial → final hop: it routes each frame with a partitioner driven
// by its own local load estimate — nothing but keys and already-local
// state ever crosses the wire, which is the paper's whole point: PKG
// needs no load gossip, no routing-table synchronization and no
// coordination among sources.
//
// Frames are the versioned, length-prefixed binary protocol of
// internal/wire: tuples and tuple batches, windowed partials and
// watermark marks (the two-phase aggregation's distributed form),
// credit and acks (flow control), point-query request/replies and
// push subscriptions. The query clients here (Query, QueryAddr,
// DrainResults, SubscribeResults) open their own connections.
//
// A distributed point query probes only the key's candidate workers —
// two under PKG — and sums their partial counts (§VI.A).
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pkgstream/internal/wire"
)

// Worker is a TCP server dispatching decoded frames to its Handler. It
// serves any number of concurrent sources and query clients; handler
// calls are serialized across connections.
type Worker struct {
	ln net.Listener
	h  Handler
	// counter is the default handler, kept for the counter-specific
	// accessors (nil when a custom handler was supplied).
	counter *CountHandler

	// hmu serializes handler dispatch across connections, so handlers
	// can run single-threaded state machines (window.FinalHandler).
	hmu sync.Mutex

	mu        sync.Mutex
	processed int64
	frames    int64
	conns     map[net.Conn]struct{}

	// serviceNs is the per-tuple service-time EWMA of handler dispatch,
	// in nanoseconds — fed by 1-in-serviceSampleEvery data frames per
	// connection, so the unsampled frame path never reads a clock.
	serviceNs atomic.Int64

	wg     sync.WaitGroup
	closed chan struct{}
}

// serviceSampleEvery is the per-connection sampling period of the
// service-time EWMA: one timed dispatch per this many data frames.
const serviceSampleEvery = 64

// ListenWorker starts a counting worker on addr (use "127.0.0.1:0" for
// an ephemeral port) — the classic PKG worker holding partial counts
// for the keys routed to it.
func ListenWorker(addr string) (*Worker, error) {
	return ListenWorkerSlow(addr, 0)
}

// ListenWorkerSlow is ListenWorker with a fixed per-tuple dispatch
// delay injected ahead of the counting handler (see Slow; 0 injects
// nothing) — the CLI fault injector behind `pkgnode -slow-worker` for
// reproducible heterogeneous-cluster scenarios.
func ListenWorkerSlow(addr string, perTuple time.Duration) (*Worker, error) {
	h := NewCountHandler()
	w, err := ListenHandler(addr, Slow(h, perTuple))
	if err != nil {
		return nil, err
	}
	w.counter = h
	return w, nil
}

// ListenHandler starts a worker on addr with a custom frame handler —
// the hosting primitive behind cmd/pkgnode.
func ListenHandler(addr string, h Handler) (*Worker, error) {
	if h == nil {
		return nil, errors.New("transport: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	w := &Worker{
		ln:     ln,
		h:      h,
		closed: make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			select {
			case <-w.closed:
				return
			default:
				// Transient accept error: keep serving.
				continue
			}
		}
		w.wg.Add(1)
		go w.serve(conn)
	}
}

func (w *Worker) serve(conn net.Conn) {
	defer w.wg.Done()
	defer conn.Close()
	w.mu.Lock()
	w.conns[conn] = struct{}{}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	select {
	case <-w.closed:
		// Close swept w.conns before this connection registered (the
		// accept → register window): it would never be closed, and an
		// idle peer would pin Close's wg.Wait forever. Bail instead.
		return
	default:
	}
	r := bufio.NewReaderSize(conn, 1<<17)
	var (
		payload []byte
		tup     wire.Tuple
		tups    []wire.Tuple
		par     wire.Partial
		reply   []byte
	)
	// Batch frames dispatch in one call when the handler supports it;
	// otherwise the worker unrolls the batch into per-tuple calls under
	// a single lock hold.
	bh, _ := w.h.(TupleBatchHandler)
	// wmu serializes every write on this connection: query replies from
	// this goroutine, flow-control acks, and — once subscribed — result
	// frames pushed by handler calls running on OTHER connections.
	wmu := &sync.Mutex{}
	// Credit flow control, armed by a wire.Credit frame: the sender
	// keeps at most `window` unacknowledged TUPLES in flight (a batch
	// of n costs n), and this side replenishes it with cumulative Acks
	// as the handler absorbs them (every window/2 tuples, so the
	// sender's window can never drain to zero with the worker idle).
	// Acks are per batch, never per tuple — one accounting pass and at
	// most one ack write however many tuples a frame carried.
	var fcWindow, fcProcessed, fcAcked int64
	var ackBuf []byte
	// Service-time sampling countdown: every serviceSampleEvery-th data
	// frame times its handler dispatch (two clock reads inside the hmu
	// hold) and folds the per-tuple duration into the worker EWMA. The
	// other frames pay one decrement and a branch.
	svc := int64(serviceSampleEvery)
	ack := func() bool {
		fcAcked = fcProcessed
		// Each ack piggybacks the worker's service-time EWMA, so every
		// sender passively learns this worker's speed at ack cadence —
		// the signal the load-aware router and the sender's adaptive
		// window controller both feed on. Costs 1-2 bytes per ack, zero
		// extra frames.
		ackBuf = wire.AppendAck(ackBuf[:0], wire.Ack{
			Count: fcProcessed, ServiceNs: w.ServiceNanos(),
		})
		wmu.Lock()
		_, err := conn.Write(ackBuf)
		wmu.Unlock()
		return err == nil
	}
	absorbedN := func(n int64) bool {
		w.addProcessed(n)
		if fcWindow <= 0 {
			return true
		}
		fcProcessed += n
		if every := fcWindow / 2; fcProcessed-fcAcked > every {
			return ack()
		}
		return true
	}
	for {
		// Zero-copy read: p aliases r's buffer for frames that fit it
		// (the decoders below copy anything a decoded value retains),
		// with payload as the spill buffer for oversized frames.
		kind, p, err := wire.ReadFrameBuffered(r, &payload)
		if err != nil {
			return // EOF, peer gone, or protocol violation: drop the connection
		}
		switch kind {
		case wire.KindTuple:
			if err := wire.DecodeTuple(p, &tup); err != nil {
				return
			}
			w.addFrames(1)
			w.hmu.Lock()
			if svc--; svc <= 0 {
				svc = serviceSampleEvery
				t0 := time.Now()
				w.h.HandleTuple(&tup)
				w.recordService(time.Since(t0).Nanoseconds(), 1)
			} else {
				w.h.HandleTuple(&tup)
			}
			w.hmu.Unlock()
			if !absorbedN(1) {
				return
			}
		case wire.KindTupleBatch:
			var err error
			if tups, err = wire.DecodeTupleBatch(p, tups); err != nil {
				return
			}
			w.addFrames(1)
			w.hmu.Lock()
			var t0 time.Time
			if svc--; svc <= 0 {
				svc = serviceSampleEvery
				t0 = time.Now()
			}
			if bh != nil {
				bh.HandleTupleBatch(tups)
			} else {
				for i := range tups {
					w.h.HandleTuple(&tups[i])
				}
			}
			if !t0.IsZero() && len(tups) > 0 {
				w.recordService(time.Since(t0).Nanoseconds(), int64(len(tups)))
			}
			w.hmu.Unlock()
			if !absorbedN(int64(len(tups))) {
				return
			}
		case wire.KindPartial:
			if err := wire.DecodePartial(p, &par); err != nil {
				return
			}
			w.addFrames(1)
			w.hmu.Lock()
			if svc--; svc <= 0 {
				svc = serviceSampleEvery
				t0 := time.Now()
				w.h.HandlePartial(&par)
				w.recordService(time.Since(t0).Nanoseconds(), 1)
			} else {
				w.h.HandlePartial(&par)
			}
			w.hmu.Unlock()
			if !absorbedN(1) {
				return
			}
		case wire.KindMark:
			m, err := wire.DecodeMark(p)
			if err != nil {
				return
			}
			w.hmu.Lock()
			w.h.HandleMark(m)
			w.hmu.Unlock()
		case wire.KindCredit:
			c, err := wire.DecodeCredit(p)
			if err != nil {
				return
			}
			fcWindow = c.Window
		case wire.KindCreditUpdate:
			u, err := wire.DecodeCreditUpdate(p)
			if err != nil {
				return
			}
			fcWindow = u.Window
			// Ack any residue immediately. The sender's stall invariant is
			// "in-flight == my window > the worker's ack threshold, so an
			// ack is coming"; a shrink can drop the sender's window BELOW
			// the unacked residue while that residue sits under the old
			// fcWindow/2 threshold — without this ack nothing would ever
			// wake the sender again. After it, absorbedN's cadence check
			// reads the updated fcWindow and tracks the new window.
			if fcProcessed > fcAcked && !ack() {
				return
			}
		case wire.KindSubscribe:
			s, err := wire.DecodeSubscribe(p)
			if err != nil {
				return
			}
			ph, ok := w.h.(PushHandler)
			if !ok {
				return // this node has nothing to push: protocol misuse
			}
			w.hmu.Lock()
			ph.HandleSubscribe(s, &connSink{mu: wmu, conn: conn})
			w.hmu.Unlock()
		case wire.KindQuery:
			q, err := wire.DecodeQuery(p)
			if err != nil {
				return
			}
			w.hmu.Lock()
			rep := w.h.HandleQuery(q)
			w.hmu.Unlock()
			if rep.Op == wire.OpStats {
				// The dispatch-path service-time EWMA belongs to the
				// worker, not the handler: stamp it onto every stats
				// reply so pollers see per-node service rates uniformly.
				if rep.Telemetry == nil {
					rep.Telemetry = &wire.Telemetry{}
				}
				rep.Telemetry.ServiceNs = w.ServiceNanos()
			}
			reply = wire.AppendReply(reply[:0], &rep)
			wmu.Lock()
			_, err = conn.Write(reply)
			wmu.Unlock()
			if err != nil {
				return
			}
		default:
			return // sketch/ack/reply frames have no business here: drop
		}
	}
}

// connSink pushes result frames on a subscribed connection, serialized
// with the connection's other writes. A write deadline keeps a stuck
// subscriber from stalling the handler chain indefinitely — the sink
// fails instead, and the handler drops it.
type connSink struct {
	mu   *sync.Mutex
	conn net.Conn
	buf  []byte
}

// Push implements ResultSink. The whole body — including the encode
// into the sink's scratch buffer — runs under the connection's write
// mutex, so concurrent Push calls (a handler pushing from its own
// timer goroutine while the serve loop answers a query) stay safe.
func (s *connSink) Push(rep *wire.Reply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = wire.AppendReply(s.buf[:0], rep)
	if err := s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	defer s.conn.SetWriteDeadline(time.Time{})
	_, err := s.conn.Write(s.buf)
	return err
}

// recordService folds one sampled dispatch (dur nanoseconds over n
// tuples) into the per-tuple service-time EWMA with α = 1/8. The CAS
// loop keeps concurrent connections' updates from tearing; samples are
// rare enough that contention is immaterial.
func (w *Worker) recordService(dur, n int64) {
	per := dur / n
	for {
		old := w.serviceNs.Load()
		nv := per
		if old != 0 {
			nv = old + (per-old)/8
		}
		if w.serviceNs.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ServiceNanos returns the worker's per-tuple service-time EWMA in
// nanoseconds: how long one tuple holds the dispatch path, sampled
// every serviceSampleEvery data frames per connection (0 until the
// first sample lands). This is the per-worker service rate a placement
// controller needs to weigh heterogeneous workers.
func (w *Worker) ServiceNanos() int64 { return w.serviceNs.Load() }

func (w *Worker) addProcessed(n int64) {
	w.mu.Lock()
	w.processed += n
	w.mu.Unlock()
}

func (w *Worker) addFrames(n int64) {
	w.mu.Lock()
	w.frames += n
	w.mu.Unlock()
}

// Processed returns the number of data items (tuples and partials)
// absorbed — tuples inside a batch frame count individually, so the
// number is framing-independent.
func (w *Worker) Processed() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.processed
}

// Frames returns the number of data frames absorbed (a tuple batch
// counts once). Processed/Frames is the effective batching ratio on
// the receive side.
func (w *Worker) Frames() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.frames
}

// DistinctKeys returns the number of live partial counters (0 for a
// custom handler).
func (w *Worker) DistinctKeys() int {
	if w.counter == nil {
		return 0
	}
	return w.counter.DistinctKeys()
}

// Count returns the worker's partial count for key (0 for a custom
// handler).
func (w *Worker) Count(key uint64) int64 {
	if w.counter == nil {
		return 0
	}
	return w.counter.Count(key)
}

// WaitProcessed blocks until the worker has absorbed at least n data
// frames or the timeout expires.
func (w *Worker) WaitProcessed(n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if w.Processed() >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: worker %s processed %d < %d after %v",
				w.Addr(), w.Processed(), n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops accepting, drops every live connection, and waits for
// the serve goroutines to finish. Dropping (rather than draining)
// matters for teardown liveness: a source that never hangs up must not
// pin the worker open — it observes the close as a connection error
// and may redial elsewhere or retry.
func (w *Worker) Close() error {
	select {
	case <-w.closed:
		return nil
	default:
	}
	close(w.closed)
	err := w.ln.Close()
	w.mu.Lock()
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
	return err
}

// Query answers a distributed point query for key against the given
// worker addresses using a fresh connection per probe: it sums the
// partial counts of the key's candidate workers only.
func Query(addrs []string, key uint64, candidates []int) (int64, error) {
	var total int64
	for _, w := range candidates {
		if w < 0 || w >= len(addrs) {
			return 0, fmt.Errorf("transport: candidate %d out of range", w)
		}
		rep, err := QueryAddr(addrs[w], wire.Query{Op: wire.OpCount, Key: key})
		if err != nil {
			return 0, err
		}
		total += rep.Count
	}
	return total, nil
}

// DrainResults polls a windowed final node until every upstream source
// has sent its final mark (Reply.Done), then pages through its closed
// (key, window) results — the client half of window.FinalHandler's
// OpResults protocol (Query.Key carries the page offset; results are
// append-only, so offsets are stable).
func DrainResults(addr string, timeout time.Duration) ([]wire.WindowResult, error) {
	// Wait on the cheap fixed-size status probe; shipping result pages
	// only starts once the node is done.
	deadline := time.Now().Add(timeout)
	var rep wire.Reply
	for {
		var err error
		rep, err = QueryAddr(addr, wire.Query{Op: wire.OpStats})
		if err == nil && rep.Done {
			break
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("transport: %s not done after %v (%d results)",
					addr, timeout, rep.Count)
			}
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
	var out []wire.WindowResult
	for int64(len(out)) < rep.Count {
		next, err := QueryAddr(addr, wire.Query{Op: wire.OpResults, Key: uint64(len(out))})
		if err != nil {
			return nil, err
		}
		if len(next.Results) == 0 {
			return nil, fmt.Errorf("transport: drain %s stalled at %d/%d results",
				addr, len(out), rep.Count)
		}
		out = append(out, next.Results...)
	}
	return out, nil
}

// SubscribeResults registers with a windowed final node for push
// delivery and accumulates the pushed closed-window results until the
// node reports Done — the drain-free replacement for DrainResults:
// instead of polling OpStats, the node writes a Reply frame on this
// connection the moment windows close, so results arrive with no poll
// interval in the latency path.
func SubscribeResults(addr string, timeout time.Duration) ([]wire.WindowResult, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: subscribe dial %s: %w", addr, err)
	}
	defer conn.Close()
	buf := wire.AppendSubscribe(nil, wire.Subscribe{})
	if _, err := conn.Write(buf); err != nil {
		return nil, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(conn, 1<<17)
	var out []wire.WindowResult
	var payload []byte
	for {
		kind, p, err := wire.ReadFrame(r, payload)
		if err != nil {
			return nil, fmt.Errorf("transport: subscribe %s after %d results: %w",
				addr, len(out), err)
		}
		payload = p
		if kind != wire.KindReply {
			return nil, fmt.Errorf("transport: %s pushed a %v frame", addr, kind)
		}
		rep, err := wire.DecodeReply(p)
		if err != nil {
			return nil, err
		}
		out = append(out, rep.Results...)
		// The node sets Done on the last frame of a fully caught-up
		// push (its result log is final and everything from the
		// subscription offset has been delivered), so Done alone ends
		// the session — correct for any Subscribe offset, since
		// Reply.Count is the node's TOTAL log length, not the
		// subscriber's share.
		if rep.Done {
			return out, nil
		}
	}
}

// SplitAddrs parses a comma-separated node address list (the form the
// PKGNODE_*_ADDRS environment variables and pkgnode's -final flag
// take), trimming whitespace and dropping empty entries.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// QueryAddr sends one point query to a worker address over a fresh
// connection and returns the reply.
func QueryAddr(addr string, q wire.Query) (wire.Reply, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return wire.Reply{}, fmt.Errorf("transport: query dial %s: %w", addr, err)
	}
	defer conn.Close()
	buf := wire.AppendQuery(nil, q)
	if _, err := conn.Write(buf); err != nil {
		return wire.Reply{}, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return wire.Reply{}, err
	}
	kind, payload, err := wire.ReadFrame(bufio.NewReader(conn), nil)
	if err != nil {
		return wire.Reply{}, fmt.Errorf("transport: query %s: %w", addr, err)
	}
	if kind != wire.KindReply {
		return wire.Reply{}, fmt.Errorf("transport: %s answered with %v", addr, kind)
	}
	return wire.DecodeReply(payload)
}
