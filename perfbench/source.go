package main

import (
	"time"

	"pkgstream/internal/engine"
	"pkgstream/internal/window"
)

// markEvery is the SourceMark cadence in tuples; window lengths are
// multiples of it, so the mark after a window's last tuple closes it.
const markEvery = 500

// source is the benchmark's spout: it replays a tape through Emit.
//
// Closed loop (interval 0): the next tuple is offered as soon as Emit
// returns. Open loop: tuple i is due at first + i·interval whatever the
// system's progress; the spout offers every tuple that is due and
// sleeps until the next one is.
//
// A tuple's event time is its position on the tape's clock; in the
// open loop that is its intended send time relative to the first offer.
type source struct {
	tp       *tape
	c        clock
	interval int64 // open loop: ns between intended sends; 0: closed loop

	i     int
	first int64   // first offer (now())
	offer []int64 // closed loop: when each window's last tuple was accepted

	// Traced runs time every Emit: its total, and the lateness of each
	// offer (accepted − due, where a closed-loop offer is due when it is
	// made).
	traced  bool
	emitNs  int64
	late    hist
	spans   *spanLog
	round   int
	winBeg  int64   // first offer of the current window (traced)
	winSpan []int32 // each window's source.window span (traced)
}

func (s *source) Open(*engine.Context) {}
func (s *source) Close()               {}

// Next offers up to one mark interval of tuples per call.
func (s *source) Next(out engine.Emitter) bool {
	n := len(s.tp.idx)
	if s.i == 0 {
		s.first = now()
		s.winBeg = s.first
	}
	end := s.i + markEvery - s.i%markEvery
	if end > n {
		end = n
	}
	if s.interval > 0 {
		// Offer only what is due: never run ahead of the schedule.
		due := int((now()-s.first)/s.interval) + 1
		if due <= s.i {
			time.Sleep(time.Duration(s.first + int64(s.i)*s.interval - now()))
			return true
		}
		if due < end {
			end = due
		}
	}
	for ; s.i < end; s.i++ {
		t := engine.Tuple{Key: s.tp.keys[s.tp.idx[s.i]], EmitNanos: s.c.at(s.i)}
		if s.traced {
			t0 := now()
			out.Emit(t)
			t1 := now()
			s.emitNs += t1 - t0
			if s.interval > 0 {
				s.late.add(t1 - (s.first + int64(s.i)*s.interval))
			} else {
				s.late.add(t1 - t0)
			}
		} else {
			out.Emit(t)
		}
		if (s.i+1)%s.c.win == 0 {
			s.windowOffered((s.i+1)/s.c.win - 1)
		}
	}
	if s.i%markEvery == 0 || s.i == n {
		out.Emit(window.SourceMark(0, s.c.at(s.i)))
	}
	if s.i == n {
		if n%s.c.win != 0 {
			s.windowOffered(n / s.c.win)
		}
		out.Emit(window.SourceMark(0, int64(1)<<62))
		return false
	}
	return true
}

// windowOffered notes that window w's last tuple has been accepted.
func (s *source) windowOffered(w int) {
	if s.interval > 0 && !s.traced {
		return // the open loop measures from the schedule, not the offer
	}
	t := now()
	if s.interval == 0 {
		s.offer[w] = t
	}
	if s.traced {
		s.winSpan[w] = s.spans.add("source.window", s.winBeg, t, -1, w, s.round)
		s.winBeg = t
	}
}

// due returns when window w's last event was due to be sent: its
// intended send time in the open loop, its acceptance in the closed
// loop.
func (s *source) due(w int) int64 {
	if s.interval == 0 {
		return s.offer[w]
	}
	last := (w+1)*s.c.win - 1
	if last >= len(s.tp.idx) {
		last = len(s.tp.idx) - 1
	}
	return s.first + int64(last)*s.interval
}
