package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runSteady runs the workload n times, each in its own process on seeds
// seed, seed+1, ..., and prints one JSON line per metric with its median,
// quartiles and spread (the distance between the quartiles as a share of
// the median), then one line with the share of failed operations per run.
// The bounds in BENCHMARK.json are set from these spreads.
func runSteady(stdout, stderr io.Writer, name string, seed uint64, seconds float64, trace, n int, stateDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	var failedShares []float64
	for k := 0; k < n; k++ {
		s := seed + uint64(k)
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-statedir", stateDir)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: outputs failed their checks", s)
		}
		failedShares = append(failedShares, float64(res.Failed)/float64(res.Attempted))
		for m, v := range res.Metrics {
			values[m] = append(values[m], v.Value)
			units[m] = v.Unit
		}
		fmt.Fprintf(stderr, "perfbench: steady %s seed %d: %s\n", name, s, bytes.TrimSpace(out.Bytes()))
	}
	enc := json.NewEncoder(stdout)
	for _, m := range sortedKeys(values) {
		q1, q2, q3 := quartiles(values[m])
		if err := enc.Encode(map[string]any{
			"workload": name, "metric": m, "unit": units[m], "runs": len(values[m]),
			"q1": q1, "median": q2, "q3": q3, "spread": ratio(q3-q1, q2),
		}); err != nil {
			return err
		}
	}
	return enc.Encode(map[string]any{"workload": name, "failed_share_per_run": failedShares})
}
