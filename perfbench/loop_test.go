package main

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	seq := func(n int) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(n - i) // descending: the function sorts
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{1, 0.5, 1}, {1, 0.99, 1},
		{3, 0.5, 2}, {3, 0.9, 3},
		{99, 0.99, 99}, {99, 0.5, 50},
		{100, 0.9, 90}, {100, 0.99, 99}, {100, 0.5, 50},
		{1000, 0.9, 900},
	} {
		if got := nearestRank(seq(c.n), c.q); got != c.want {
			t.Errorf("n=%d q=%v: got %d, want %d", c.n, c.q, got, c.want)
		}
	}
	if nearestRank(nil, 0.5) != 0 {
		t.Error("no samples should read 0")
	}
}

// TestQuartilesMatchPython compares with statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("%v: got %v %v, want %v %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestClosedLoopBoundsOutstanding checks that the loop never has more
// operations outstanding than workers and runs whole rounds.
func TestClosedLoopBoundsOutstanding(t *testing.T) {
	var cur, peak atomic.Int64
	var mu sync.Mutex
	perWorker := map[int]int{}
	op := func(w, k int) bool {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		mu.Lock()
		perWorker[w]++
		mu.Unlock()
		return k%7 != 3
	}
	res := closedLoop(3, 4, 30*time.Millisecond, time.Second, op)
	if peak.Load() > 3 {
		t.Fatalf("%d operations outstanding with 3 workers", peak.Load())
	}
	for w, n := range perWorker {
		if n%4 != 0 {
			t.Errorf("worker %d ran %d operations, not whole rounds of 4", w, n)
		}
	}
	if res.attempted != int64(len(res.lat)) || res.attempted == 0 {
		t.Fatalf("attempted %d, samples %d", res.attempted, len(res.lat))
	}
	if res.failed == 0 || res.okWithin+res.failed != res.attempted {
		t.Fatalf("failed %d, within limit %d, attempted %d", res.failed, res.okWithin, res.attempted)
	}
}

func TestClosedLoopLimitCountsMisses(t *testing.T) {
	res := closedLoop(1, 1, 20*time.Millisecond, time.Millisecond, func(int, int) bool {
		time.Sleep(2 * time.Millisecond)
		return true
	})
	if res.okWithin != 0 || res.failed != 0 || res.rate() != 0 {
		t.Fatalf("slow operations counted within the limit: %+v", res)
	}
}

func TestResultLine(t *testing.T) {
	oc := &outcome{correct: true, attempted: 3, metrics: map[string]float64{"p50_ms": 1.5}}
	if _, err := resultLine(oc, endToEnd, true); err == nil {
		t.Fatal("missing end-to-end metrics accepted")
	}
	line, err := resultLine(oc, perLayer, false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := parseResult([]byte("progress\n" + line + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(perLayer) || r.Attempted != 3 || !r.Correct {
		t.Fatalf("result line %s", line)
	}
	if !strings.Contains(line, `"serve.run_ms":{"value":0,"unit":"ms"}`) {
		t.Fatalf("unmeasured per-layer metric missing: %s", line)
	}
}
