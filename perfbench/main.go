// Command perfbench is the repository's benchmark. It drives four closed-loop
// workloads in-process — three through the serving stack's HTTP API, one
// through the paper-evaluation root API — checks every output against an
// independent reference or a stated property, and prints one JSON result
// line as the last line of its standard output.
//
// Usage (from the repository root; run.sh builds and runs this package):
//
//	bash perfbench/run.sh --workload deep-resident --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady 5 --workload all --seconds 20
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// --steady N runs each named workload N times, each in a fresh process on
// seeds seed..seed+N-1, and prints every metric's median and quartile
// spread. README.md lists the metrics and workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"seculator"
)

// metricSpec is one metric of BENCHMARK.json: its name and unit.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json. Every workload prints every
// metric of the set its mode selects; a per-layer metric whose layer is not
// on a workload's path reads 0 there (README.md, "Per-layer metrics").
var endToEnd = []metricSpec{
	{"p50_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricSpec{
	{"serve.run_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"gateway.self_ms", "ms"},
	{"serve.batch_size", "count"},
	{"serve.residency_hit_ratio", "ratio"},
	{"host.commands_per_req", "count"},
	{"runtime.alloc_kib_per_req", "KiB"},
	{"runtime.gc_per_kreq", "count"},
	{"runtime.gc_pause_ms_per_kreq", "ms"},
	{"nn.forward_ms", "ms"},
	{"nn.random_model_ms", "ms"},
	{"secure.resident_run_ms", "ms"},
	{"secure.provision_ms", "ms"},
	{"secure.conv_ms", "ms"},
	{"secure.depthwise_ms", "ms"},
	{"secure.pointwise_ms", "ms"},
	{"secure.pool_ms", "ms"},
	{"secure.fc_ms", "ms"},
	{"secure.blocks_per_req", "count"},
	{"crypto.ctr_ns_per_block", "ns"},
	{"mac.block_mac_ns", "ns"},
	{"mac.fold_row_ns_per_block", "ns"},
	{"trace.p50_ms", "ms"},
	{"trace.p90_ms", "ms"},
	{"experiments.fig4_ms", "ms"},
	{"experiments.fig7_ms", "ms"},
	{"experiments.fig9_ms", "ms"},
	{"experiments.matrix_ms", "ms"},
	{"experiments.energy_ms", "ms"},
	{"experiments.sensitivity_ms", "ms"},
	{"runner.baseline_ms", "ms"},
	{"runner.secure_ms", "ms"},
	{"runner.tnpu_ms", "ms"},
	{"runner.guardnn_ms", "ms"},
	{"runner.seculator_ms", "ms"},
	{"runner.seculator-plus_ms", "ms"},
	{"runner.host_ns_per_kcycle", "ns"},
	{"runner.cache_hit_ratio", "ratio"},
	{"runner.sim_mcycles", "Mcycles"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration // total length of the timed phases
	trace   bool
	out     io.Writer // human-readable progress lines
}

// outcome is what a workload reports: operations attempted and failed,
// whether every checked output was right, and its metric values.
type outcome struct {
	attempted, failed int64
	correct           bool
	metrics           map[string]float64
}

// workloadDef names one workload and the function that runs it.
type workloadDef struct {
	name string
	run  func(ctx context.Context, rc runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{"gateway-mini", gatewayMini.run},
	{"deep-resident", deepResident.run},
	{"cold-models", coldModels.run},
	{"paper-eval", runPaperEval},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: gateway-mini, deep-resident, cold-models, paper-eval (all with --steady)")
	seed := fs.Int64("seed", 1, "workload seed: model seeds and inputs derive from it")
	seconds := fs.Float64("seconds", 20, "length of the timed phases, in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 prints per-layer metrics")
	steady := fs.Int("steady", 0, "steadiness mode: run each workload this many times in fresh processes and print medians and quartile spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		return runSteady(*name, *seed, *seconds, *steady, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	printHost(stdout)
	rc := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		out:     stdout,
	}
	oc, err := w.run(context.Background(), rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	specs := endToEnd
	if rc.trace {
		specs = perLayer
	}
	line, err := resultLine(oc, specs, !rc.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// printHost prints the host record every reference figure is tied to.
func printHost(out io.Writer) {
	fmt.Fprintf(out, "host: cores=%d GOMAXPROCS=%d go=%s %s/%s infer_workers=%d experiment_workers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		seculator.InferParallelism(), seculator.Parallelism())
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the outcome's metrics of the given set as the JSON
// result line. With requireAll, a metric the workload did not set is an
// error (end-to-end metrics); otherwise it reads 0 (per-layer metrics of a
// layer not on the workload's path).
func resultLine(oc *outcome, specs []metricSpec, requireAll bool) (string, error) {
	r := resultJSON{Correct: oc.correct, Attempted: oc.attempted, Failed: oc.failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := oc.metrics[s.name]
		if !ok && requireAll {
			return "", fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	b, err := json.Marshal(r)
	return string(b), err
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// logf prints one progress line.
func logf(out io.Writer, format string, args ...any) {
	fmt.Fprintf(out, format+"\n", args...)
}
