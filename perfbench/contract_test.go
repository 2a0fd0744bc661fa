package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestContractMatchesBenchmarkJSON keeps the metric lists in step with
// BENCHMARK.json at the repository root.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, perfbench %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q in BENCHMARK.json is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench implements %d", len(b.Workloads), len(workloads))
	}
}
