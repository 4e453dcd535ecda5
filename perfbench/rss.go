package main

import (
	"bytes"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// rssEvery is the resident-set sampling period.
const rssEvery = 5 * time.Millisecond

// rssSampler samples the process's resident set (/proc/self/statm) every
// rssEvery and keeps the peak since the last take. A measurement window
// reads its own peak, so one rare spike moves one window's value, not the
// run's median.
type rssSampler struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	for {
		p := s.peak.Load()
		if rss <= p || s.peak.CompareAndSwap(p, rss) {
			return
		}
	}
}

// take returns the peak resident set in MiB since the last take (or the
// start) and starts a new window.
func (s *rssSampler) take() float64 {
	s.sample()
	return float64(s.peak.Swap(0)) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}
