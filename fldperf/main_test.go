package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"flexdriver"
)

// TestSmoke runs every workload once per mode on a short simulated
// window and checks that the correctness gate passes and that exactly
// the metrics BENCHMARK.json declares are printed, with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	// Short windows that still put ten or more samples beyond p999.
	short := map[string]flexdriver.Duration{
		"kv100k": 2 * flexdriver.Millisecond,
		"echo16": 3 * flexdriver.Millisecond,
		"echo64": 400 * flexdriver.Microsecond,
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(specs))
	}
	for i, s := range specs {
		if decl.Workloads[i].Name != s.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, decl.Workloads[i].Name, s.name)
		}
		s.window = short[s.name]
		for _, trace := range []bool{false, true} {
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			var out bytes.Buffer
			res := measure(s, options{workload: s.name, seed: 1, seconds: 1, trace: trace}, &out)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					s.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", s.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", s.name, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
}
