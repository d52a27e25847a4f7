package main

import (
	"encoding/json"
	"os"
	"testing"
)

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %q / %q", i, m.Workloads[i], w.name, w.why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, program %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := m.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: manifest %+v, program %+v", i, got, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, program %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := m.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, got, d)
		}
	}
}

// A -short pass over every workload: every end-to-end metric is emitted and
// positive on every workload, every per-layer metric is emitted by at least
// one, no op fails, and no workload leaves its layer idle.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	cfg := configFor(1, true)
	layerSeen := make(map[string]bool)
	for _, w := range workloads {
		o, err := runUntraced(w, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !o.correct() {
			t.Errorf("%s: %d of %d ops failed %s", w.name, o.Failed, o.Attempted, o.Idle)
		}
		if len(o.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, want %d", w.name, len(o.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := o.Metrics[d.name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.name, d.name, v)
			}
		}
		tr, err := runTraced(w, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.correct() {
			t.Errorf("%s traced: %d of %d ops failed %s", w.name, tr.Failed, tr.Attempted, tr.Idle)
		}
		known := make(map[string]bool)
		for _, d := range perLayer {
			known[d.name] = true
		}
		for name := range tr.Metrics {
			if !known[name] {
				t.Errorf("%s traced: emitted %s, which names.go does not list", w.name, name)
			}
			layerSeen[name] = true
		}
	}
	for _, d := range perLayer {
		if !layerSeen[d.name] {
			t.Errorf("no workload emitted per-layer metric %s", d.name)
		}
	}
}
