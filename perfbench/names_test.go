package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

type benchFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
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

func sortedKeys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// BENCHMARK.json must name exactly the workloads and metrics the benchmark
// prints, with the units it prints, and every name must be valid.
func TestBenchmarkFileMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	valid := func(name, unit string) {
		if !metricName.MatchString(name) {
			t.Errorf("invalid name %q", name)
		}
		if unit != "" && !unitName.MatchString(unit) {
			t.Errorf("%s: invalid unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		valid(w.Name, "")
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
	}

	compare := func(kind string, listed map[string]string, printed metrics) {
		got := map[string]string{}
		for k, m := range printed {
			got[k] = m.Unit
		}
		for _, k := range sortedKeys(listed) {
			if u, ok := got[k]; !ok {
				t.Errorf("%s metric %s is listed but not printed", kind, k)
			} else if u != listed[k] {
				t.Errorf("%s metric %s: unit %q listed, %q printed", kind, k, listed[k], u)
			}
		}
		for _, k := range sortedKeys(got) {
			if _, ok := listed[k]; !ok {
				t.Errorf("%s metric %s is printed but not listed", kind, k)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		valid(m.Name, m.Unit)
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	compare("end-to-end", e2e, endToEnd([]float64{1}, []float64{1}, []float64{1}, []float64{1}, 1))
	layer := map[string]string{}
	for _, m := range bf.PerLayer {
		valid(m.Name, m.Unit)
		layer[m.Name] = m.Unit
	}
	compare("per-layer", layer, layerMetrics(newReplay(nil), nil, map[string]int64{}, traceFigures{}))
}
