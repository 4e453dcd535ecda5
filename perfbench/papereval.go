package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"seculator"
	"seculator/internal/runner"
)

// paperEvalLimit is paper-eval's latency limit for one pass.
const paperEvalLimit = time.Minute

// The root-API entries of one evaluation pass that are timed separately.
var evalEntries = []string{
	"experiments.fig4_ms", "experiments.fig7_ms", "experiments.fig9_ms",
	"experiments.matrix_ms", "experiments.energy_ms", "experiments.sensitivity_ms",
}

// passResult is one evaluation pass: every table it rendered, the results
// the property checks read, and the time of each root-API entry.
type passResult struct {
	text    string
	fig7    seculator.EvaluationResult
	cells   []seculator.DetectionCell
	entries []time.Duration // parallel to evalEntries
	cache   seculator.CacheStats
}

// evalPass regenerates every figure and table seculator-bench prints,
// through the root API, starting from an empty simulation cache.
func evalPass(cfg seculator.Config) (p passResult, err error) {
	seculator.ResetSimCache()
	seculator.ResetSimCacheStats()
	var b strings.Builder
	show := func(t seculator.Table) { b.WriteString(t.String()); b.WriteByte('\n') }
	step := func(f func() error) error {
		t0 := time.Now()
		err := f()
		p.entries = append(p.entries, time.Since(t0))
		return err
	}
	resnet, err := seculator.NetworkByName("ResNet18")
	if err != nil {
		return p, err
	}
	steps := []func() error{
		func() error {
			r, err := seculator.Fig4Characterization(cfg)
			show(r.Fig4Table())
			show(r.Fig5Table())
			return err
		},
		func() error {
			r, err := seculator.Fig7Performance(cfg)
			p.fig7 = r
			show(r.Fig7Table())
			show(r.Fig8Table())
			fmt.Fprintf(&b, "mean speedup over TNPU %.4f, over GuardNN %.4f\n",
				r.Mean(seculator.Seculator, false)/r.Mean(seculator.TNPU, false),
				r.Mean(seculator.Seculator, false)/r.Mean(seculator.GuardNN, false))
			return err
		},
		func() error {
			r, err := seculator.Fig9Widening(cfg)
			show(r.Fig9Table())
			return err
		},
		func() error {
			cells, err := seculator.DetectionMatrix(seculator.DefaultAttackScenario())
			p.cells = cells
			for _, c := range cells {
				fmt.Fprintf(&b, "%v %v detected=%v corrupted=%v\n", c.Design, c.Attack, c.Detected, c.Corrupted)
			}
			return err
		},
		func() error {
			t, err := seculator.EnergyTable(resnet, cfg)
			show(t)
			return err
		},
		func() error {
			bw, err := seculator.SweepBandwidth(resnet, cfg, []float64{0.11, 0.22, 0.44})
			if err != nil {
				return err
			}
			gb, err := seculator.SweepGlobalBuffer(resnet, cfg, []int{120, 240, 480})
			if err != nil {
				return err
			}
			pe, err := seculator.SweepPEArray(resnet, cfg, []int{16, 32, 64})
			if err != nil {
				return err
			}
			mc, err := seculator.SweepMACCache(resnet, cfg, []int{2, 8, 32, 64})
			for _, r := range []seculator.SweepResult{bw, gb, pe, mc} {
				show(seculator.SweepTable(r))
			}
			return err
		},
	}
	for _, f := range steps {
		if err := step(f); err != nil {
			return p, err
		}
	}
	show(seculator.Table5Matrix())
	show(seculator.Table6Hardware())
	show(seculator.PatternTable("all", seculator.PatternGrid{AlphaHW: 4, AlphaC: 3, AlphaK: 2, OfmapTileBlocks: 1}))
	p.cache = seculator.SimCacheStats()
	p.text = b.String()
	return p, nil
}

// checkPass checks one pass's properties: Table 5 detection, the cycle
// ordering of Figure 7, and (from the just-filled simulation cache) that
// Seculator moves no metadata.
func checkPass(ctx context.Context, cfg seculator.Config, p passResult) error {
	if err := checkDetection(p.cells); err != nil {
		return err
	}
	if err := checkCycles(p.fig7.Points); err != nil {
		return err
	}
	for _, n := range seculator.Benchmarks() {
		r, err := runner.RunCached(ctx, n, seculator.Seculator, cfg)
		if err != nil {
			return err
		}
		if err := checkNoMetadata(n.Name, r.Traffic); err != nil {
			return err
		}
	}
	return nil
}

// runPaperEval runs the paper-evaluation workload: cold passes in a
// closed loop, first on one experiment worker, then on one per core.
func runPaperEval(ctx context.Context, rc runConfig) (*outcome, error) {
	cfg := seculator.DefaultConfig()
	workers := runtime.NumCPU()
	oc := &outcome{correct: true, metrics: map[string]float64{}}

	// Set-up is the process's first pass: it pays every one-time cost
	// before the evaluation's first result, and every later pass must
	// render its tables exactly.
	seculator.SetParallelism(workers)
	t0 := time.Now()
	first, err := evalPass(cfg)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	if err := checkPass(ctx, cfg, first); err != nil {
		oc.correct = false
		logf(rc.out, "CHECK FAILED: %v", err)
	}

	var serialEntries [][]time.Duration // entry times of the one-worker passes
	var hitRatio []float64
	var firstErr string
	pass := func(int, int) bool {
		p, err := evalPass(cfg)
		if err == nil {
			err = checkIdentical(first.text, p.text)
			if err != nil {
				oc.correct = false
			}
		}
		if err != nil {
			if firstErr == "" {
				firstErr = err.Error()
			}
			return false
		}
		if seculator.Parallelism() == 1 {
			serialEntries = append(serialEntries, p.entries)
		}
		hitRatio = append(hitRatio, p.cache.HitRate())
		return true
	}

	// The timed part is whole rounds of a pass on one experiment worker
	// (p50_ms) then a pass on one worker per core (capacity_rps and
	// cpu_ms_per_op, medians over the rounds), so both see the same stretch
	// of the host's load.
	// Every pass starts from a collected heap with free memory returned to
	// the OS, so each pass's peak resident set is its own. peak_rss_mib is
	// the median over the one-worker passes: on one worker per core the
	// peak depends on where GC cycles fall between the workers' allocation
	// bursts and ranged 20-36 MiB between identical runs (README.md).
	var lat, capa phaseResult
	var rates, cpus, rss []float64
	sampler := startRSSSampler()
	defer sampler.close()
	deadline := time.Now().Add(rc.seconds)
	for time.Now().Before(deadline) {
		debug.FreeOSMemory()
		sampler.take()
		seculator.SetParallelism(1)
		lat.merge(closedLoop(1, 1, 0, paperEvalLimit, pass))
		rss = append(rss, sampler.take())
		debug.FreeOSMemory()
		seculator.SetParallelism(workers)
		cpu0 := cpuTime()
		c := closedLoop(1, 1, 0, paperEvalLimit, pass)
		cpu := cpuTime() - cpu0
		capa.merge(c)
		rates = append(rates, c.rate())
		cpus = append(cpus, ms(cpu)/float64(max(c.attempted-c.failed, 1)))
	}

	oc.attempted = lat.attempted + capa.attempted
	oc.failed = lat.failed + capa.failed
	if firstErr != "" {
		logf(rc.out, "first failure: %s", firstErr)
	}
	logf(rc.out, "paper-eval: setup pass %.3fs; 1 worker: %d passes p50=%.1fms; %d workers: %d passes, median %.4f passes/s; failed=%d",
		setup.Seconds(), lat.attempted, lat.percentileMs(0.5), workers, capa.attempted, median(rates), oc.failed)

	if !rc.trace {
		oc.metrics["p50_ms"] = lat.percentileMs(0.5)
		oc.metrics["capacity_rps"] = median(rates)
		oc.metrics["cpu_ms_per_op"] = median(cpus)
		oc.metrics["peak_rss_mib"] = median(rss)
		oc.metrics["setup_s"] = setup.Seconds()
		return oc, nil
	}

	m := oc.metrics
	m["trace.p50_ms"] = lat.percentileMs(0.5)
	m["trace.p90_ms"] = lat.percentileMs(0.9)
	for i, name := range evalEntries {
		var xs []float64
		for _, e := range serialEntries {
			xs = append(xs, ms(e[i]))
		}
		m[name] = median(xs)
	}
	m["runner.cache_hit_ratio"] = median(hitRatio)
	if err := probeRunner(ctx, cfg, m); err != nil {
		return nil, err
	}
	probeKernels(m)
	return oc, nil
}

// runnerMetric names each design's uncached-simulation metric.
var runnerMetric = map[seculator.Design]string{
	seculator.Baseline:      "runner.baseline_ms",
	seculator.Secure:        "runner.secure_ms",
	seculator.TNPU:          "runner.tnpu_ms",
	seculator.GuardNN:       "runner.guardnn_ms",
	seculator.Seculator:     "runner.seculator_ms",
	seculator.SeculatorPlus: "runner.seculator-plus_ms",
}

// probeRunner simulates the five Table 1 networks on every design,
// uncached and one at a time, and reports host time per design, host time
// per thousand simulated cycles, and Seculator's simulated cycles.
func probeRunner(ctx context.Context, cfg seculator.Config, m map[string]float64) error {
	var host time.Duration
	var cycles, secCycles uint64
	for _, d := range seculator.Designs() {
		var spent time.Duration
		for _, n := range seculator.Benchmarks() {
			t0 := time.Now()
			r, err := seculator.RunContext(ctx, n, d, cfg)
			if err != nil {
				return err
			}
			spent += time.Since(t0)
			cycles += uint64(r.Cycles)
			if d == seculator.Seculator {
				secCycles += uint64(r.Cycles)
			}
		}
		host += spent
		if name, ok := runnerMetric[d]; ok {
			m[name] = ms(spent)
		}
	}
	if cycles > 0 {
		m["runner.host_ns_per_kcycle"] = float64(host) / (float64(cycles) / 1000)
	}
	m["runner.sim_mcycles"] = float64(secCycles) / 1e6
	return nil
}
