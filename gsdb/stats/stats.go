// Package stats is the public measurement toolkit of the gsdb API: response
// time samples with exact percentiles, as used by the
// examples and command-line tools.  It re-exports the module's internal
// statistics package, which stays an implementation detail.
package stats

import istats "groupsafe/internal/stats"

// Sample accumulates scalar observations (typically response times in
// milliseconds via AddDuration) and reports mean, max, standard deviation and
// exact percentiles.
type Sample = istats.Sample

// NewSample returns an empty sample.
func NewSample() *Sample { return istats.NewSample() }

// Breakdown groups observations by transaction class (typically "query" vs
// "update"), one Sample per class, so per-class latency percentiles come from
// the same toolkit — the measurement side of the paper's local-queries versus
// ordered-updates split.
type Breakdown = istats.Breakdown

// NewBreakdown returns an empty per-class collector.
func NewBreakdown() *Breakdown { return istats.NewBreakdown() }
