package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the spec tables in step: the
// driver reads names, units, directions and bounds from the file, the
// benchmark prints them from the tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type fileSpec struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []fileSpec                   `json:"end_to_end"`
		PerLayer  []fileSpec                   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	defs := workloadDefs()
	if len(file.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(file.Workloads), len(defs))
	}
	for i, def := range defs {
		if got := file.Workloads[i]; got.Name != def.name || got.Why != def.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, def.name, def.why)
		}
		if len(def.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", def.name, len(def.why))
		}
	}
	for _, table := range []struct {
		key   string
		file  []fileSpec
		specs []spec
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		if len(table.file) != len(table.specs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark has %d", table.key, len(table.file), len(table.specs))
		}
		for i, s := range table.specs {
			if got := table.file[i]; got != (fileSpec{s.Name, s.Unit, s.Better, s.Bound}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", table.key, i, got, s)
			}
		}
	}
}

// TestQuick runs every workload both ways with one-second phases and asserts
// that each named metric is measured and finite, that the output checks pass
// and that no operation failed, so a refactor that breaks the benchmark
// fails the ordinary test run.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	tmp := t.TempDir()
	for _, def := range workloadDefs() {
		for _, traced := range []bool{false, true} {
			name := def.name + "/timed"
			if traced {
				name = def.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(context.Background(), &runConfig{
					def: def, seed: 1, seconds: 2 * time.Second, traced: traced, scale: 1, tmp: tmp,
				})
				if err != nil {
					t.Fatal(err) // includes a metric that is missing or not finite
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.Error)
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// is [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
