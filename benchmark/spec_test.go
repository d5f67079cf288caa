package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root is what the driver reads; the
// metric and workload lists in spec.go are what the program prints. They
// must say the same thing, within the limits the driver checks.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside 1..60", doc.RunSeconds)
	}
	if len(doc.Command) == 0 || len(doc.Command) > 32 {
		t.Errorf("command has %d parts", len(doc.Command))
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], spec.go has %s [%s, %s]", kind, i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
			}
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound %v, spec.go says %v (limit 0.25)", m.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, limit 1..16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, limit 1..128", n)
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
}
