// Command perfbench is the repository's end-to-end benchmark. Each workload
// builds its world from the agentrec packages, seeds and warms it, then
// drives one closed-loop client over a deterministic operation stream for the
// requested number of seconds, checks the outputs, and prints one JSON
// result line:
//
//	perfbench -workload hot-read -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced phase plus the tracing
// overhead. -steady N repeats a workload on N seeds and prints each metric's
// quartiles. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	// The system runs on one core, so that the process's CPU clock, which
	// every reported time is read from, is the time that core spent on it
	// (see cpu.go).
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the generated community and operation stream")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced phase")
	steady := fs.Int("steady", 0, "if > 0, run the workload this many times on seeds seed, seed+1, ... and print each metric's quartiles")
	stateDir := fs.String("statedir", os.TempDir(), "directory for the workloads' on-disk state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || *steady < 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be > 0, -trace 0 or 1, -steady >= 0")
		return 2
	}
	if *steady > 0 {
		if err := runSteady(stdout, stderr, *name, *seed, *seconds, *traced, *steady, *stateDir); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, stateDir: *stateDir, log: stderr, size: fullSize}
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(spec, cfg)
	} else {
		res, err = runPlain(spec, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lastResult parses the result line a benchmark run printed last.
func lastResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if len(lines) == 0 || lines[len(lines)-1] == "" {
		return res, errors.New("no result line")
	}
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	return res, err
}
