// Package edge unifies every topology hop — the bounded in-process
// channels of the engine runtime and the TCP tuple path to a remote
// worker — behind one flow-controlled Edge abstraction. The paper's
// deployment shape (§V) is fully distributed: spouts, PKG-partial
// workers and final aggregators on separate machines, with the skewed
// heavy traffic on the spout→partial *tuple* edge. That edge is only
// honest when it carries the same backpressure contract as a local
// channel: a slow receiver must stall the sender, never balloon a TCP
// buffer or drop.
//
// Two implementations:
//
//   - Local wraps the engine's bounded batch channels — the PR 1 hot
//     path, unchanged: Send is one channel operation per batch, and
//     backpressure is the channel blocking when the receiver lags;
//   - Wire carries tuples — and, on the partial → final hop, flushed
//     partials — over TCP with credit-based flow control (wire.Credit /
//     wire.Ack): the sender keeps at most Window unacknowledged data
//     items in flight per connection, so a slow remote worker stalls
//     its upstream exactly like a full local channel does. It is the
//     only routed TCP sender in the tree.
package edge

// Edge is one directed topology hop fanning out to n destination
// instances. Implementations deliver batches in order per destination
// and exert backpressure by blocking Send.
type Edge[T any] interface {
	// Send delivers one batch to destination instance dst, blocking
	// while the destination's buffer (Local) or credit window (Wire) is
	// exhausted — the backpressure signal that stalls the emitter. The
	// callee takes ownership of the batch slice.
	Send(dst int, batch []T) error
	// Watermark broadcasts a source's event-time promise ("source will
	// never again send below wm") to every destination, after flushing
	// any buffered data the promise covers. Local edges carry
	// watermarks in-band as data (the engine's mark tuples), so their
	// Watermark is a no-op.
	Watermark(source uint32, wm int64) error
	// Flush pushes buffered frames toward the destinations (a no-op
	// for Local, whose Send is unbuffered).
	Flush() error
	// Close flushes and releases the sender side of the edge.
	Close() error
}

// Stats are the counters of one edge, snapshot-safe while the edge is
// in use.
type Stats struct {
	// Frames counts data batches (Local) or data frames (Wire) sent —
	// a Wire batch frame carrying n tuples counts once.
	Frames int64
	// Tuples counts individual tuples shipped (Wire only — the credit
	// denomination; Frames × batch size in the steady state).
	Tuples int64
	// Marks counts watermark broadcasts.
	Marks int64
	// Stalls counts sends that blocked on an exhausted credit window
	// (Wire only — the visible form of remote backpressure reaching
	// the sender).
	Stalls int64
	// Retries counts reconnect attempts after send failures.
	Retries int64
	// Failures counts operations that exhausted their retries.
	Failures int64
	// WaitNs is the total nanoseconds sends spent stalled on an
	// exhausted credit window (Wire only) — WaitNs over wall time is
	// the fraction of the run the edge was backpressured.
	WaitNs int64
	// InFlight is the number of unacknowledged tuples in flight across
	// the edge's connections at snapshot time (Wire only — a gauge, not
	// a counter; folding sums the gauges).
	InFlight int64
	// Queue is the number of tuples buffered in per-destination batch
	// buffers, encoded but not yet framed, at snapshot time (Wire only,
	// populated when the edge runs a linger flusher — without one the
	// edge is single-goroutine and buffers cannot be read safely from a
	// stats poller).
	Queue int64
	// Window is the summed live credit window of the edge's
	// connections at snapshot time (Wire only — on a static edge it is
	// connections × configured window; under AdaptiveWindow it moves
	// with the AIMD controllers; folding sums the gauges).
	Window int64
	// ServiceNs holds the per-destination service-time estimates (ns
	// per tuple) the edge has learned from ack piggybacks, indexed by
	// destination node; 0 means no estimate yet (Wire only).
	ServiceNs []int64
}

// Fold accumulates another edge's counters into s.
func (s *Stats) Fold(x Stats) {
	s.Frames += x.Frames
	s.Tuples += x.Tuples
	s.Marks += x.Marks
	s.Stalls += x.Stalls
	s.Retries += x.Retries
	s.Failures += x.Failures
	s.WaitNs += x.WaitNs
	s.InFlight += x.InFlight
	s.Queue += x.Queue
	s.Window += x.Window
	// Parallel edges to the same nodes each hold an estimate of the
	// same per-node quantity: keep the worst (slowest) one — the
	// conservative signal for dashboards and alerts.
	for len(s.ServiceNs) < len(x.ServiceNs) {
		s.ServiceNs = append(s.ServiceNs, 0)
	}
	for i, ns := range x.ServiceNs {
		if ns > s.ServiceNs[i] {
			s.ServiceNs[i] = ns
		}
	}
}
