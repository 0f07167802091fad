// Package stats provides the small statistics toolkit used by the benchmark
// harness and the performance simulator: response-time collectors with
// exact percentiles, and a per-class breakdown of them.
//
// Sample stores every observation so percentiles are exact rather than
// approximated — the data sets here (one simulated run, one benchmark
// iteration) are small enough that exactness beats a sketch.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates scalar observations (stored in full so that exact
// percentiles can be computed).
type Sample struct {
	values []float64
	sum    float64
	sorted bool
}

// NewSample returns an empty sample.
func NewSample() *Sample { return &Sample{} }

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	s.sorted = false
}

// AddDuration records a duration observation in milliseconds.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	var sq float64
	for _, v := range s.values {
		d := v - mean
		sq += d * d
	}
	return math.Sqrt(sq / float64(n-1))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// String renders a one-line summary.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f max=%.2f",
		s.N(), s.Mean(), s.Median(), s.Percentile(95), s.Max())
}

// Breakdown groups observations by transaction class (typically "query" vs
// "update"), keeping one Sample and one completion counter per class, so
// per-class latency percentiles fall out of the same toolkit as the overall
// ones.  It is not safe for concurrent use; collect under the caller's lock
// like a plain Sample.
type Breakdown struct {
	classes map[string]*Sample
	order   []string
}

// NewBreakdown returns an empty per-class collector.
func NewBreakdown() *Breakdown {
	return &Breakdown{classes: make(map[string]*Sample)}
}

// Sample returns the sample of the given class, creating it on first use.
func (b *Breakdown) Sample(class string) *Sample {
	s, ok := b.classes[class]
	if !ok {
		s = NewSample()
		b.classes[class] = s
		b.order = append(b.order, class)
	}
	return s
}

// Classes returns the class names in first-observation order.
func (b *Breakdown) Classes() []string {
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}

// N returns the total number of observations across classes.
func (b *Breakdown) N() int {
	n := 0
	for _, s := range b.classes {
		n += s.N()
	}
	return n
}

// String renders one summary line per class.
func (b *Breakdown) String() string {
	out := ""
	for _, class := range b.order {
		if out != "" {
			out += "\n"
		}
		out += fmt.Sprintf("%-8s %s", class, b.classes[class].String())
	}
	return out
}
