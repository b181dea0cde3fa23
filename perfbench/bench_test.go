package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// testSize is a reduced community, small enough for a whole pass of every
// workload, untraced and traced, in a few seconds.
var testSize = size{users: 400, spillUsers: 300, products: 120, categories: 6, setups: 2, warm: 3, checks: 4}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) (workloads []string, endToEnd, perLayer map[string]declared) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	index := func(ds []declared) map[string]declared {
		m := make(map[string]declared, len(ds))
		for _, d := range ds {
			m[d.Name] = d
		}
		return m
	}
	return workloads, index(doc.EndToEnd), index(doc.PerLayer)
}

// requireDeclared checks that the printed metrics are exactly the declared
// ones, with the declared units and a direction.
func requireDeclared(t *testing.T, name string, got map[string]metric, want map[string]declared, bounded bool) {
	t.Helper()
	for m, v := range got {
		d, ok := want[m]
		switch {
		case !ok:
			t.Errorf("%s prints %s, which BENCHMARK.json does not declare", name, m)
		case d.Unit != v.Unit:
			t.Errorf("%s prints %s in %q, BENCHMARK.json says %q", name, m, v.Unit, d.Unit)
		case d.Better != "lower" && d.Better != "higher":
			t.Errorf("%s has no direction in BENCHMARK.json", m)
		case bounded && (d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25):
			t.Errorf("%s has no bound in (0, 0.25] in BENCHMARK.json", m)
		}
	}
	for m := range want {
		if _, ok := got[m]; !ok {
			t.Errorf("%s does not print %s", name, m)
		}
	}
}

// TestWorkloadsReducedSize runs every declared workload at testSize,
// untraced and traced: each must finish with no failed operation, pass its
// output checks, and print exactly the metrics BENCHMARK.json declares.
func TestWorkloadsReducedSize(t *testing.T) {
	names, endToEnd, perLayer := loadBenchmarkJSON(t)
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for _, name := range names {
		spec, ok := workloads[name]
		if !ok {
			t.Errorf("BENCHMARK.json declares unknown workload %s", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{seed: 7, seconds: 0.3, stateDir: t.TempDir(), log: io.Discard, size: testSize}
			if testing.Verbose() {
				cfg.log = os.Stderr
			}
			for _, traced := range []bool{false, true} {
				run, want, bounded := runPlain, endToEnd, true
				if traced {
					run, want, bounded = runTraced, perLayer, false
				}
				res, err := run(spec, cfg)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				requireDeclared(t, name, res.Metrics, want, bounded)
			}
		})
	}
}
