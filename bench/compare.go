package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// compareReports prints, for every workload and end-to-end metric, how far
// report B's median is from report A's in the metric's worse direction,
// against the metric's bound.  A pairing whose run-to-run spread (the
// distance between the quartiles over the median, in either report) exceeds
// the bound is unresolved: the reports cannot tell a regression from noise.
// Per-layer metrics are listed without a verdict.  The exit code is 1 when
// any pairing is outside its bound or unresolved.
func compareReports(pathA, pathB string) int {
	a, errA := loadReport(pathA)
	b, errB := loadReport(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(os.Stderr, "bench: compare: %v\n", err)
		return 2
	}
	return compareValues(a, b)
}

// loadReport groups a report's values by workload and metric.
func loadReport(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	values := make(map[string]map[string][]float64)
	for _, r := range rep.Runs {
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], v.Value)
		}
	}
	return values, nil
}

func compareValues(a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Printf("%-14s %-30s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, def := range workloadDefs() {
		for _, specs := range [][]spec{endToEnd, perLayer} {
			for _, s := range specs {
				va, vb := a[def.name][s.Name], b[def.name][s.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				worse := ratio(mb-ma, ma)
				if s.Better == "higher" {
					worse = -worse
				}
				spread := max(spreadOf(va), spreadOf(vb))
				verdict := "-"
				if s.Bound > 0 {
					switch {
					case spread > s.Bound:
						verdict, code = "unresolved", 1
					case worse > s.Bound:
						verdict, code = "WORSE", 1
					default:
						verdict = "ok"
					}
				}
				fmt.Printf("%-14s %-30s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s (n=%d,%d)\n",
					def.name, s.Name, ma, mb, 100*worse, 100*spread, 100*s.Bound, verdict, len(va), len(vb))
			}
		}
	}
	return code
}

// spreadOf is the distance between the quartiles as a share of the median.
func spreadOf(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}
