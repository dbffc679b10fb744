package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON: the metric names and units the
// program prints are the ones BENCHMARK.json and metrics.json declare.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	var meta struct {
		EndToEnd map[string]struct{ Unit string } `json:"end_to_end"`
		PerLayer map[string]struct{ Unit string } `json:"per_layer"`
	}
	for path, v := range map[string]any{"../BENCHMARK.json": &bench, "metrics.json": &meta} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }, described map[string]struct{ Unit string }) {
		if len(listed) != len(defs) || len(described) != len(defs) {
			t.Errorf("%s: %d in metrics.go, %d in BENCHMARK.json, %d in metrics.json", kind, len(defs), len(listed), len(described))
		}
		for i, d := range defs {
			if i < len(listed) && (listed[i].Name != d.Name || listed[i].Unit != d.Unit) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], metrics.go %s [%s]", kind, i, listed[i].Name, listed[i].Unit, d.Name, d.Unit)
			}
			if m, ok := described[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: metrics.json lacks %s [%s]", kind, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd, meta.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer, meta.PerLayer)
}
