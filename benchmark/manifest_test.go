package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// BENCHMARK.json is what a driver reads; the lists in workloads.go and
// metrics.go are what the program reports. They must say the same.
func TestManifestMatchesCode(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in workloads.go", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := m.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, got, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := m.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, got, d)
		}
	}
}
