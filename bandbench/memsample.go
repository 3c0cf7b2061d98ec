package main

import (
	"runtime/metrics"
	"time"
)

// memSampleEvery is how often a memSampler reads the runtime's memory
// classes while a sweep runs.
const memSampleEvery = 2 * time.Millisecond

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS — everything it has mapped minus what it has returned — while a
// sweep runs. Unlike the process's lifetime VmHWM, a per-sweep peak can
// be taken over many sweeps and reported as a median.
type memSampler struct {
	stop chan struct{}
	done chan uint64
}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		var peak uint64
		read := func() {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
		}
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			read()
			select {
			case <-s.stop:
				read()
				s.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends the sampling and returns the peak in bytes.
func (s *memSampler) Stop() uint64 {
	close(s.stop)
	return <-s.done
}
