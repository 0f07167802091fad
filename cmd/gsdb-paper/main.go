// Command gsdb-paper reproduces the tables, figures and claims of the paper.
// Fig. 9 runs on the discrete-event simulator (internal/simrep), the Sect. 7
// scaling argument on its Monte-Carlo model, and everything else on the real
// replication stack over the in-memory network (internal/experiments).
//
// Usage:
//
//	gsdb-paper -table 1     # Table 1: safety level classification (Table 4's 9 servers)
//	gsdb-paper -table 2     # Table 2: tolerated crashes, checked by crash injection
//	gsdb-paper -table 3     # Table 3: group-safe vs group-1-safe
//	gsdb-paper -table 4     # Table 4: the simulator parameters
//	gsdb-paper -figure 5    # Fig. 5: lost transaction, classical atomic broadcast
//	gsdb-paper -figure 7    # Fig. 7: recovery with end-to-end atomic broadcast
//	gsdb-paper -figure 8    # Fig. 2 vs Fig. 8 response-time breakdown
//	gsdb-paper -figure 9 [-duration 60s] [-loads 20,24,...] [-levels group-safe,1-safe-lazy] [-seed 1]
//	gsdb-paper -section 6   # Sect. 6: disk force vs atomic broadcast
//	gsdb-paper -section 7   # Sect. 7: ACID-violation probability vs servers
//	gsdb-paper -all         # everything
package main

import (
	"flag"
	"fmt"
	"os"
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

func run() int {
	table := flag.Int("table", 0, "paper table to reproduce: 1 | 2 | 3 | 4")
	figure := flag.Int("figure", 0, "paper figure to reproduce: 5 | 7 | 8 (Fig. 2 vs Fig. 8) | 9")
	section := flag.Int("section", 0, "paper section claim to reproduce: 6 (disk force vs broadcast) | 7 (scaling)")
	all := flag.Bool("all", false, "reproduce every table, figure and section claim")
	duration := flag.Duration("duration", 60*time.Second, "Fig. 9: simulated duration per data point")
	loadsFlag := flag.String("loads", "", "Fig. 9: comma-separated load points in tps (default 20..40)")
	levelsFlag := flag.String("levels", "", "Fig. 9: comma-separated subset of group-safe,1-safe-lazy,group-1-safe")
	seed := flag.Int64("seed", 1, "Fig. 9: random seed")
	flag.Parse()

	for _, c := range []struct {
		name  string
		value int
		valid []int
	}{
		{"table", *table, []int{0, 1, 2, 3, 4}},
		{"figure", *figure, []int{0, 5, 7, 8, 9}},
		{"section", *section, []int{0, 6, 7}},
	} {
		if !slices.Contains(c.valid, c.value) {
			fmt.Fprintf(os.Stderr, "-%s %d: want one of %v\n", c.name, c.value, c.valid[1:])
			return 2
		}
	}
	if !*all && *table == 0 && *figure == 0 && *section == 0 {
		flag.Usage()
		return 2
	}

	cfg := simrep.DefaultConfig()
	cfg.Duration = *duration
	cfg.Seed = *seed
	loads, levels, err := parseFig9Axes(*loadsFlag, *levelsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	steps := []struct {
		run func() error
		on  bool
	}{
		{func() error { printTable1(cfg.Servers); return nil }, *table == 1},
		{printTable2, *table == 2},
		{printTable3, *table == 3},
		{func() error { printTable4(cfg); return nil }, *table == 4},
		{printFigure5, *figure == 5},
		{printFigure7, *figure == 7},
		{printFigure2vs8, *figure == 8},
		{func() error { return printFigure9(cfg, levels, loads) }, *figure == 9},
		{printSection6, *section == 6},
		{func() error { printSection7(); return nil }, *section == 7},
	}
	ran := false
	for _, s := range steps {
		if !*all && !s.on {
			continue
		}
		if ran {
			fmt.Println()
		}
		ran = true
		if err := s.run(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
	}
	return 0
}

// parseFig9Axes reads -loads and -levels; nil leaves an axis to Fig. 9's
// defaults.
func parseFig9Axes(loadsFlag, levelsFlag string) ([]float64, []core.SafetyLevel, error) {
	var loads []float64
	if loadsFlag != "" {
		for _, tok := range strings.Split(loadsFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad load %q: %v", tok, err)
			}
			loads = append(loads, v)
		}
	}
	var levels []core.SafetyLevel
	if levelsFlag != "" {
		for _, tok := range strings.Split(levelsFlag, ",") {
			level, err := core.ParseLevel(strings.TrimSpace(tok))
			if err != nil {
				return nil, nil, err
			}
			if !slices.Contains(simrep.Figure9Levels(), level) {
				return nil, nil, fmt.Errorf("level %v is not simulated: Fig. 9 plots %v", level, simrep.Figure9Levels())
			}
			levels = append(levels, level)
		}
	}
	return loads, levels, nil
}

func printTable1(servers int) {
	fmt.Printf("Table 1/2 — safety level classification (n = %d servers):\n", servers)
	fmt.Printf("  %-14s %-18s %-16s %-18s\n", "level", "delivered on", "logged on", "tolerated crashes")
	for _, row := range experiments.RunTable1(servers) {
		fmt.Printf("  %-14s %-18s %-16s %-18s\n", row.Level, row.GuaranteedDeliverd, row.GuaranteedLogged, row.ToleratedCrashes)
	}
}

func printTable2() error {
	fmt.Println("Table 2 — operational crash-tolerance check (acknowledged transaction lost?):")
	rows, err := experiments.RunTable2(3)
	if err != nil {
		return err
	}
	fmt.Printf("  %-14s %-18s %-18s %-24s\n", "level", "delegate crash", "minority crash", "total failure (Sd gone)")
	for _, row := range rows {
		fmt.Printf("  %-14s %-18v %-18v %-24v\n", row.Level, row.LostAfterDelegate, row.LostAfterMinority, row.LostAfterTotalFail)
	}
	return nil
}

func printTable3() error {
	fmt.Println("Table 3 — group-safe vs group-1-safe (acknowledged transaction lost?):")
	rows, err := experiments.RunTable3()
	if err != nil {
		return err
	}
	fmt.Printf("  %-42s %-14s %-14s\n", "condition", "group-safe", "group-1-safe")
	for _, row := range rows {
		fmt.Printf("  %-42s %-14v %-14v\n", row.Condition, row.GroupSafeLost, row.Group1SafeLost)
	}
	return nil
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

func printFigure5() error {
	res, err := experiments.RunFigure5()
	if err != nil {
		return err
	}
	fmt.Println("Figure 5 — classical atomic broadcast, total failure, delegate never recovers:")
	fmt.Println("  " + res.String())
	fmt.Println("  => the acknowledged transaction is LOST: the technique is not 2-safe")
	return nil
}

func printFigure7() error {
	res, err := experiments.RunFigure7()
	if err != nil {
		return err
	}
	fmt.Println("Figure 7 — end-to-end atomic broadcast, same crash schedule:")
	fmt.Println("  " + res.String())
	fmt.Println("  => the logged message is replayed after recovery: the technique is 2-safe")
	return nil
}

func printFigure2vs8() error {
	res, err := experiments.RunFig2VsFig8Trace(8*time.Millisecond, 70*time.Microsecond, 5)
	if err != nil {
		return err
	}
	fmt.Println("Figure 2 vs Figure 8 — single-transaction response time breakdown:")
	fmt.Printf("  disk force %v, network latency %v\n", res.DiskSyncDelay, res.NetworkLatency)
	fmt.Printf("  group-1-safe (Fig. 2) response: %v\n", res.Group1SafeResponse)
	fmt.Printf("  group-safe   (Fig. 8) response: %v\n", res.GroupSafeResponse)
	fmt.Printf("  savings (≈ disk force taken off the response path): %v\n", res.ResponseTimeSavings)
	return nil
}

// printFigure9 runs the response-time-versus-load sweep; nil levels or loads
// take Fig. 9's axes.
func printFigure9(cfg simrep.Config, levels []core.SafetyLevel, loads []float64) error {
	fmt.Printf("Figure 9 reproduction: response time vs load (%d servers, Table 4 workload, certification technique)\n\n", cfg.Servers)
	results, err := simrep.RunFigure9(cfg, levels, loads)
	if err != nil {
		return err
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
	return nil
}

func printSection6() error {
	res, err := experiments.RunDiskVsBroadcast(8*time.Millisecond, 70*time.Microsecond, 9)
	if err != nil {
		return err
	}
	fmt.Println("Section 6 claim — forcing a log vs performing an atomic broadcast:")
	fmt.Printf("  disk force:        %v\n", res.DiskForce)
	fmt.Printf("  atomic broadcast:  %v\n", res.AtomicBroadcast)
	fmt.Printf("  ratio:             %.1fx (broadcast cheaper: %v)\n", res.Ratio, res.BroadcastCheaper)
	return nil
}

func printSection7() {
	fmt.Println("Section 7: probability of an ACID violation vs number of servers")
	fmt.Printf("%-10s  %-22s  %-22s\n", "servers", "lazy (grows with n)", "group-safe (shrinks)")
	for _, p := range experiments.RunSection7Scaling(experiments.ScalingConfig{}) {
		fmt.Printf("%-10d  %-22.4f  %-22.4f\n", p.Servers, p.LazyViolationProb, p.GroupSafeViolateProb)
	}
}
