package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// BENCHMARK.json is written by hand; these tests hold it to the tables
// in the code and to the limits of the benchmark contract.
func TestManifestMatchesCode(t *testing.T) {
	m, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", m.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer differs from perLayerMetrics")
		for i := range min(len(m.PerLayer), len(perLayerMetrics)) {
			if !reflect.DeepEqual(m.PerLayer[i], perLayerMetrics[i]) {
				t.Errorf("  first difference at %d: json %+v, code %+v", i, m.PerLayer[i], perLayerMetrics[i])
				break
			}
		}
	}
}

func TestManifestWithinContract(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	m, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, size limit 64 KiB", err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || len(w.Why) == 0 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q outside the contract", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if d.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths %v", m.Paths)
	}
}
