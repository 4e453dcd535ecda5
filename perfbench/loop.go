package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The benchmark's closed-loop load generator. A fixed set of workers each send
// their next operation only after the previous one returns, so the number
// of operations outstanding never exceeds the worker count. Every worker
// runs whole rounds (a round is the workload's fixed sequence of
// operations), at least one, and starts no round once the phase's time is
// up.

// phaseResult is one closed-loop phase: every operation's latency, whether
// it succeeded, and the phase's wall time.
type phaseResult struct {
	lat       []time.Duration // every attempted operation, failed ones included
	okWithin  int64           // operations that succeeded within the phase's latency limit
	attempted int64
	failed    int64
	elapsed   time.Duration // phase start to the last operation's end
}

// closedLoop runs workers goroutines for dur. Each runs whole rounds of
// round operations; op(worker, k) performs the worker's k-th operation
// (k counts from 0 across its rounds) and reports success. limit is the
// latency limit for okWithin.
func closedLoop(workers, round int, dur, limit time.Duration, op func(worker, k int) bool) phaseResult {
	type workerResult struct {
		lat              []time.Duration
		okWithin, failed int64
	}
	results := make([]workerResult, workers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := &results[w]
			for k := 0; k == 0 || time.Now().Before(deadline); {
				for j := 0; j < round; j, k = j+1, k+1 {
					t0 := time.Now()
					ok := op(w, k)
					d := time.Since(t0)
					wr.lat = append(wr.lat, d)
					switch {
					case !ok:
						wr.failed++
					case d <= limit:
						wr.okWithin++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start)}
	for _, wr := range results {
		res.lat = append(res.lat, wr.lat...)
		res.okWithin += wr.okWithin
		res.failed += wr.failed
	}
	res.attempted = int64(len(res.lat))
	return res
}

// merge adds another phase's operations and time to p.
func (p *phaseResult) merge(o phaseResult) {
	p.lat = append(p.lat, o.lat...)
	p.okWithin += o.okWithin
	p.attempted += o.attempted
	p.failed += o.failed
	p.elapsed += o.elapsed
}

// rate is operations that succeeded within the limit, per second.
func (p phaseResult) rate() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.okWithin) / p.elapsed.Seconds()
}

// percentileMs is the nearest-rank p-quantile (rank ⌈p·n⌉) of the phase's
// latencies, in milliseconds.
func (p phaseResult) percentileMs(q float64) float64 {
	return ms(nearestRank(p.lat, q))
}

// nearestRank returns the element of rank ⌈q·n⌉ (1-based) of xs sorted
// ascending; 0 for no samples. xs is not modified.
func nearestRank(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), which the steadiness gate is defined on. It needs two or more
// values.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
