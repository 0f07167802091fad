package simrep

import (
	"fmt"
	"sort"
	"strings"

	"groupsafe/internal/core"
)

// Figure9Levels are the three techniques plotted in Fig. 9 of the paper.
func Figure9Levels() []core.SafetyLevel {
	return []core.SafetyLevel{core.GroupSafe, core.Safety1Lazy, core.Group1Safe}
}

// Figure9Loads is the load axis of Fig. 9: 20 to 40 transactions per second.
func Figure9Loads() []float64 {
	loads := make([]float64, 0, 11)
	for l := 20.0; l <= 40.0; l += 2 {
		loads = append(loads, l)
	}
	return loads
}

// RunFigure9 runs the full response-time-versus-load sweep for the given
// levels and loads (defaults to the paper's setting when nil).
func RunFigure9(cfg Config, levels []core.SafetyLevel, loads []float64) ([]Result, error) {
	if levels == nil {
		levels = Figure9Levels()
	}
	if loads == nil {
		loads = Figure9Loads()
	}
	results := make([]Result, 0, len(levels)*len(loads))
	for _, level := range levels {
		for _, load := range loads {
			r, err := Run(cfg, level, load)
			if err != nil {
				return nil, fmt.Errorf("simrep: %v at %v tps: %w", level, load, err)
			}
			results = append(results, r)
		}
	}
	return results, nil
}

// CrossoverLoad returns the lowest load at which technique a becomes slower
// than technique b (0 when a stays faster over the whole sweep).  The paper
// reports a crossover of group-safe versus lazy replication at roughly 38 tps.
func CrossoverLoad(results []Result, a, b core.SafetyLevel) float64 {
	byLoad := map[float64]map[core.SafetyLevel]float64{}
	for _, r := range results {
		if byLoad[r.LoadTPS] == nil {
			byLoad[r.LoadTPS] = map[core.SafetyLevel]float64{}
		}
		byLoad[r.LoadTPS][r.Level] = r.ResponseMeanMs
	}
	loads := make([]float64, 0, len(byLoad))
	for l := range byLoad {
		loads = append(loads, l)
	}
	sort.Float64s(loads)
	for _, l := range loads {
		ra, okA := byLoad[l][a]
		rb, okB := byLoad[l][b]
		if okA && okB && ra > rb {
			return l
		}
	}
	return 0
}

// FormatFigure9 renders the sweep as the table behind Fig. 9: one row per
// load, one column per technique (mean response time in milliseconds).
func FormatFigure9(results []Result) string {
	levels := []core.SafetyLevel{}
	seen := map[core.SafetyLevel]bool{}
	byKey := map[string]Result{}
	loadSet := map[float64]bool{}
	for _, r := range results {
		if !seen[r.Level] {
			seen[r.Level] = true
			levels = append(levels, r.Level)
		}
		loadSet[r.LoadTPS] = true
		byKey[fmt.Sprintf("%v/%v", r.Level, r.LoadTPS)] = r
	}
	loads := make([]float64, 0, len(loadSet))
	for l := range loadSet {
		loads = append(loads, l)
	}
	sort.Float64s(loads)

	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "load [tps]")
	for _, level := range levels {
		fmt.Fprintf(&b, "  %18s", level.String()+" [ms]")
	}
	fmt.Fprintf(&b, "  %14s\n", "abort rate")
	for _, load := range loads {
		fmt.Fprintf(&b, "%-12.0f", load)
		var abortRate float64
		for _, level := range levels {
			r, ok := byKey[fmt.Sprintf("%v/%v", level, load)]
			if !ok {
				fmt.Fprintf(&b, "  %18s", "-")
				continue
			}
			fmt.Fprintf(&b, "  %18.1f", r.ResponseMeanMs)
			if level == core.GroupSafe {
				abortRate = r.AbortRate
			}
		}
		fmt.Fprintf(&b, "  %13.1f%%\n", 100*abortRate)
	}
	return b.String()
}
