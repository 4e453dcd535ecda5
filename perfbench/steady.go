package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSteady is the steadiness mode: it runs each workload n times, each in
// a fresh process (peak RSS and set-up are per process) on seeds
// seed..seed+n-1, and prints for every end-to-end metric the median, the
// quartiles and the spread — the distance between the quartiles as a
// share of the median — with the failed share of each run.
func runSteady(name string, seed int64, seconds float64, n int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var names []string
	for _, w := range workloads {
		if name == "" || name == "all" || name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	printHost(stdout)
	status := 0
	for _, w := range names {
		values := map[string][]float64{}
		var shares []string
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
			cmd.Stderr = stderr
			out, err := cmd.Output()
			r, perr := parseResult(out)
			if err != nil || perr != nil || !r.Correct {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: run error %v, parse error %v, correct %v\n", w, s, err, perr, r.Correct)
				status = 1
				continue
			}
			for k, v := range r.Metrics {
				values[k] = append(values[k], v.Value)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
		}
		fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d, failed/attempted %s\n", w, n, seed, seed+int64(n)-1, strings.Join(shares, " "))
		fmt.Fprintf(stdout, "  %-14s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "spread")
		for _, spec := range endToEnd {
			xs := values[spec.name]
			if len(xs) < 2 {
				continue
			}
			q1, q3 := quartiles(xs)
			med := median(xs)
			var runs []string
			for _, x := range xs {
				runs = append(runs, strconv.FormatFloat(x, 'g', 5, 64))
			}
			fmt.Fprintf(stdout, "  %-14s %12.4f %12.4f %12.4f %7.1f%%  %-4s  runs: %s\n", spec.name, med, q1, q3, 100*(q3-q1)/med, spec.unit, strings.Join(runs, " "))
		}
	}
	return status
}

// parseResult reads the JSON result line, the last line of a run's
// standard output.
func parseResult(out []byte) (resultJSON, error) {
	var r resultJSON
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) == 0 {
		return r, fmt.Errorf("no output")
	}
	err := json.Unmarshal(lines[len(lines)-1], &r)
	return r, err
}
