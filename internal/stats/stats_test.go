package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleBasics(t *testing.T) {
	s := NewSample()
	if s.Mean() != 0 || s.Median() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Median() != 3 {
		t.Fatalf("Median = %v", s.Median())
	}
	if s.Max() != 5 {
		t.Fatalf("Max = %v", s.Max())
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("P100 = %v", got)
	}
	if got := s.Percentile(25); got != 2 {
		t.Fatalf("P25 = %v", got)
	}
}

func TestSampleAddDuration(t *testing.T) {
	s := NewSample()
	s.AddDuration(250 * time.Millisecond)
	if s.Mean() != 250 {
		t.Fatalf("AddDuration should store milliseconds, got %v", s.Mean())
	}
}

func TestPercentileProperties(t *testing.T) {
	// Property: percentiles are monotone in p and bounded by min/max.
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample()
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := s.Percentile(p1), s.Percentile(p2)
		return v1 <= v2+1e-9 && v1 >= s.Percentile(0)-1e-9 && v2 <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
