package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTablesMatchBenchmarkJSON pins the Go metric tables and workload names
// to the contract file, both ways and in order.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		json []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var want []specMetric
		for _, d := range c.defs {
			want = append(want, specMetric{d.name, d.unit})
		}
		if !slices.Equal(c.json, want) {
			t.Errorf("%s: BENCHMARK.json has %v, the benchmark reports %v", c.kind, c.json, want)
		}
	}
}

// TestSmoke runs all four workloads, untraced and traced, at toy shapes
// (256 classes, 20 iterations, 1 s phases) and asserts that each run is
// correct and emits every metric of its table exactly once with a finite
// value. It asserts nothing about the values: timings at toy shapes on a
// shared CI box mean nothing.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				r, err := runWorkload(name, options{seed: 1, seconds: 1, trace: trace, outDir: t.TempDir(), toy: true})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d notes=%v", r.Correct, r.Attempted, r.Failed, r.Notes)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				// runWorkload has already checked presence and finiteness
				// against the Go table (report.finish); with the table
				// pinned to the file above, the count closes "exactly once".
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s [%s] emitted as %+v (present %v)", m.Name, m.Unit, got, ok)
					}
				}
			})
		}
	}
}
