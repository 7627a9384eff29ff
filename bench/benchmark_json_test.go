package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkJSON is the schema of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesHarness checks that BENCHMARK.json lists exactly
// the workloads the harness runs and the metrics it emits, with their units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var cfg benchmarkJSON
	if err := dec.Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cfg.Paths, []string{"bench"}) {
		t.Errorf("paths = %q, want [bench]", cfg.Paths)
	}
	if n := len(cfg.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(cfg.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(cfg.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}

	var ids []string
	for _, w := range workloads {
		ids = append(ids, w.id)
	}
	var listed []string
	for _, w := range cfg.Workloads {
		checkName(w.Name)
		listed = append(listed, w.Name)
	}
	if !slices.Equal(listed, ids) {
		t.Errorf("workloads = %q, harness runs %q", listed, ids)
	}

	one := session{WallS: []float64{1}, CPUS: []float64{1}, SetupS: 1, Mallocs: 1, AllocBytes: 1, MaxRSSKB: 1}
	rs := &runSet{timed: []session{one}}
	e2e, err := rs.endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	traced := one
	traced.Layers = &layerTotals{}
	rs.traced = &traced
	perLayer, err := rs.perLayer(1)
	if err != nil {
		t.Fatal(err)
	}

	maxBound, setupBound := 0.0, 0.0
	for _, m := range cfg.EndToEnd {
		checkName(m.Name)
		emitted, ok := e2e[m.Name]
		if !ok || emitted.Unit != m.Unit || m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %+v: harness emits %v (%+v)", m, ok, emitted)
		}
		delete(e2e, m.Name)
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g, want the largest end-to-end bound (%g)", setupBound, maxBound)
	}
	for _, m := range cfg.PerLayer {
		checkName(m.Name)
		emitted, ok := perLayer[m.Name]
		if !ok || emitted.Unit != m.Unit || m.Better != "lower" {
			t.Errorf("per-layer %+v: harness emits %v (%+v)", m, ok, emitted)
		}
		delete(perLayer, m.Name)
	}
	for name := range e2e {
		t.Errorf("harness emits end-to-end metric %q that BENCHMARK.json does not list", name)
	}
	for name := range perLayer {
		t.Errorf("harness emits per-layer metric %q that BENCHMARK.json does not list", name)
	}
}
