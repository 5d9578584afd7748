package main

import (
	"runtime/metrics"
	"time"
)

// memPeak samples the Go runtime's resident memory (everything it has
// mapped minus what it has released to the OS) every few milliseconds
// while a round runs, and keeps the peak. A round's peak covers its
// set-up as well as the measured pass.
type memPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		samples := append([]metrics.Sample(nil), memSamples...)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if rss := samples[0].Value.Uint64() - samples[1].Value.Uint64(); rss > m.peak {
				m.peak = rss
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// end stops the sampler and returns the peak in bytes.
func (m *memPeak) end() uint64 {
	close(m.stop)
	<-m.done
	return m.peak
}
