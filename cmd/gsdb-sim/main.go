// Command gsdb-sim runs the performance experiments of the paper's Sect. 6 on
// the discrete-event simulator: the Fig. 9 response-time-versus-load sweep,
// the Sect. 7 scaling comparison, and the Table 4 parameter listing.
//
// Usage:
//
//	gsdb-sim -experiment fig9    [-duration 60s] [-loads 20,24,...,40]
//	gsdb-sim -experiment fig9 -levels 1-safe-lazy   # the lazy baseline only
//	gsdb-sim -experiment scaling
//	gsdb-sim -print-config
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/experiments"
	"groupsafe/internal/simrep"
)

func main() {
	os.Exit(run())
}

// run carries the real main body and returns the process exit code, so the
// CPU-profile teardown in its defer also runs on error exits (a bare
// os.Exit would skip it and leave a truncated profile).
func run() int {
	experiment := flag.String("experiment", "fig9", "experiment to run: fig9 | scaling")
	duration := flag.Duration("duration", 60*time.Second, "simulated duration per data point")
	loadsFlag := flag.String("loads", "", "comma-separated load points in tps (default 20..40)")
	levelsFlag := flag.String("levels", "", "comma-separated levels: group-safe,1-safe-lazy,group-1-safe,2-safe,very-safe,0-safe")
	printConfig := flag.Bool("print-config", false, "print the Table 4 simulator parameters and exit")
	seed := flag.Int64("seed", 1, "random seed")
	batch := flag.Int("batch", 1, "most transactions one simulated dissemination round carries (1: the paper's unbatched flow)")
	applyWorkers := flag.Int("apply-workers", 0, "concurrent write-set installs per server (0: one per disk)")
	readFraction := flag.Float64("read-fraction", 0, "fraction of transactions that are pure read-only queries (0: Table 4 mix)")
	queryKeys := flag.Int("query-keys", 0, "keys read per query transaction (0: transaction-length bounds)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create cpu profile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	cfg := simrep.DefaultConfig()
	cfg.Duration = *duration
	cfg.Seed = *seed
	cfg.BatchSize = *batch
	cfg.ApplyWorkers = *applyWorkers
	cfg.ReadFraction = *readFraction
	cfg.QueryMinOps = *queryKeys
	cfg.QueryMaxOps = *queryKeys

	if *printConfig {
		printTable4(cfg)
		return 0
	}

	switch *experiment {
	case "fig9":
		return runFig9(cfg, *loadsFlag, *levelsFlag)
	case "scaling":
		runScaling()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		return 2
	}
}

func printTable4(cfg simrep.Config) {
	fmt.Println("Simulator parameters (Table 4 of the paper):")
	fmt.Printf("  Number of items in the database      %d\n", cfg.Items)
	fmt.Printf("  Number of servers                    %d\n", cfg.Servers)
	fmt.Printf("  Number of clients per server         %d\n", cfg.ClientsPerServer)
	fmt.Printf("  Disks per server                     %d\n", cfg.DisksPerServer)
	fmt.Printf("  CPUs per server                      %d\n", cfg.CPUsPerServer)
	fmt.Printf("  Transaction length                   %d - %d operations\n", cfg.MinOps, cfg.MaxOps)
	fmt.Printf("  Probability an operation is a write  %.0f%%\n", 100*cfg.WriteProb)
	fmt.Printf("  Buffer hit ratio                     %.0f%%\n", 100*cfg.BufferHitRatio)
	fmt.Printf("  Time for a read/write                %v - %v\n", cfg.DiskAccessMin, cfg.DiskAccessMax)
	fmt.Printf("  CPU time used for an I/O operation   %v\n", cfg.CPUPerIO)
	fmt.Printf("  Time for a message on the network    %v\n", cfg.NetworkDelay)
	fmt.Printf("  CPU time for a network operation     %v\n", cfg.CPUPerNetworkOp)
	fmt.Printf("  Simulated duration per data point    %v\n", cfg.Duration)
}

func runFig9(cfg simrep.Config, loadsFlag, levelsFlag string) int {
	loads := simrep.Figure9Loads()
	if loadsFlag != "" {
		loads = nil
		for _, tok := range strings.Split(loadsFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad load %q: %v\n", tok, err)
				return 2
			}
			loads = append(loads, v)
		}
	}
	// nil lets RunFigure9 pick the Fig. 9 trio.
	var levels []core.SafetyLevel
	if levelsFlag != "" {
		for _, tok := range strings.Split(levelsFlag, ",") {
			level, err := core.ParseLevel(strings.TrimSpace(tok))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			levels = append(levels, level)
		}
	}

	fmt.Printf("Figure 9 reproduction: response time vs load (%d servers, Table 4 workload, certification technique)\n\n", cfg.Servers)
	results, err := simrep.RunFigure9(cfg, levels, loads)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(simrep.FormatFigure9(results))
	// The group-safe-vs-lazy crossover needs both curves in the sweep.
	if levels == nil || slices.Contains(levels, core.GroupSafe) && slices.Contains(levels, core.Safety1Lazy) {
		if cross := simrep.CrossoverLoad(results, core.GroupSafe, core.Safety1Lazy); cross > 0 {
			fmt.Printf("group-safe overtakes lazy replication at %.0f tps (paper: ~38 tps)\n", cross)
		} else {
			fmt.Println("group-safe stayed faster than lazy replication over the whole sweep")
		}
	}
	return 0
}

func runScaling() {
	fmt.Println("Section 7: probability of an ACID violation vs number of servers")
	fmt.Printf("%-10s  %-22s  %-22s\n", "servers", "lazy (grows with n)", "group-safe (shrinks)")
	for _, p := range experiments.RunSection7Scaling(experiments.ScalingConfig{}) {
		fmt.Printf("%-10d  %-22.4f  %-22.4f\n", p.Servers, p.LazyViolationProb, p.GroupSafeViolateProb)
	}
}
