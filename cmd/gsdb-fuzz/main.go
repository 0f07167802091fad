// Command gsdb-fuzz drives the deterministic fault-injection scenario fuzzer
// from the shell: seed sweeps, single-seed runs, trace replay, schedule
// shrinking and corpus emission.
//
// Usage:
//
//	gsdb-fuzz -seeds 50                          # sweep seeds 1..50
//	gsdb-fuzz -start 1000 -seeds 200 -out /tmp   # nightly slice, artifacts in /tmp
//	gsdb-fuzz -seed 42 -level 1-safe-lazy        # one pinned run
//	gsdb-fuzz -replay failure.trace              # re-run a recorded trace
//	gsdb-fuzz -seed 7 -emit corpus/seed-7.trace  # write the trace, no run
//
// The exit status is 0 when every run satisfied the invariant suite, 1 on a
// violation (the minimised failing trace is written to -out), 2 on usage or
// harness errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"groupsafe/internal/sim/fuzz"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seed       = flag.Int64("seed", 0, "run exactly this seed (0: sweep -start..-start+-seeds-1)")
		start      = flag.Int64("start", 1, "first seed of a sweep")
		seeds      = flag.Int64("seeds", 25, "number of seeds in a sweep")
		level      = flag.String("level", "", "pin the safety level (0-safe, 1-safe-lazy, group-safe, group-1-safe, 2-safe, very-safe)")
		profile    = flag.String("profile", "", "adversary profile: "+strings.Join(fuzz.Profiles(), ", "))
		replicas   = flag.Int("replicas", 0, "pin the cluster size (0: derived from the seed)")
		steps      = flag.Int("steps", 0, "schedule length (0: default)")
		txnTimeout = flag.Duration("txn-timeout", 0, "per-transaction timeout (0: default)")
		replay     = flag.String("replay", "", "replay a recorded trace file instead of generating")
		emit       = flag.String("emit", "", "write the generated trace to this path and exit without running")
		noShrink   = flag.Bool("no-shrink", false, "skip schedule minimisation on failure")
		out        = flag.String("out", ".", "directory for failing trace artifacts")
	)
	flag.Parse()

	if *replay != "" {
		sc, err := fuzz.ReadTrace(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		return check(sc, *out, *noShrink)
	}

	mkConfig := func(s int64) fuzz.Config {
		return fuzz.Config{
			Seed:       s,
			Level:      *level,
			Profile:    *profile,
			Replicas:   *replicas,
			Steps:      *steps,
			TxnTimeout: *txnTimeout,
		}
	}

	if *emit != "" {
		sc, err := fuzz.Generate(mkConfig(*seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := fuzz.WriteTrace(*emit, sc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Printf("wrote %s (%d steps, level=%s)\n", *emit, len(sc.Steps), sc.Cfg.Level)
		return 0
	}

	first, count := *start, *seeds
	if *seed != 0 {
		first, count = *seed, 1
	}
	began := time.Now()
	for s := first; s < first+count; s++ {
		sc, err := fuzz.Generate(mkConfig(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Printf("seed %d: level=%s replicas=%d profile=%s steps=%d\n",
			s, sc.Cfg.Level, sc.Cfg.Replicas, sc.Cfg.Profile, len(sc.Steps))
		if code := check(sc, *out, *noShrink); code != 0 {
			return code
		}
	}
	fmt.Printf("%d seed(s) clean in %v\n", count, time.Since(began).Round(time.Millisecond))
	return 0
}

// check runs one scenario, shrinks on failure and writes the artifact.
func check(sc *fuzz.Scenario, outDir string, noShrink bool) int {
	rec, err := fuzz.Run(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	violations := fuzz.CheckAll(rec)
	if len(violations) == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "seed %d: %d invariant violation(s):\n%s",
		sc.Cfg.Seed, len(violations), fuzz.ReportViolations(violations))
	final := sc
	if !noShrink {
		res := fuzz.Shrink(sc, violations, 48)
		final = res.Scenario
		fmt.Fprintf(os.Stderr, "minimised to %d steps in %d runs\n", len(final.Steps), res.Runs)
	}
	path := filepath.Join(outDir, fmt.Sprintf("fuzz-failure-seed%d%s", sc.Cfg.Seed, fuzz.TraceExt))
	if err := fuzz.WriteTrace(path, final); err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		fmt.Fprintf(os.Stderr, "replayable trace: %s (gsdb-fuzz -replay %s)\n", path, path)
	}
	return 1
}
