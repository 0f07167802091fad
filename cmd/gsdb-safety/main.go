// Command gsdb-safety runs the safety experiments of the paper on the real
// replication stack (in-memory network, crash injection):
//
//	gsdb-safety -table 1            # Table 1: safety level classification
//	gsdb-safety -table 2            # Table 2: tolerated crashes (operational)
//	gsdb-safety -table 3            # Table 3: group-safe vs group-1-safe
//	gsdb-safety -scenario fig5      # Fig. 5: lost transaction, classical abcast
//	gsdb-safety -scenario fig7      # Fig. 7: recovery with end-to-end abcast
//	gsdb-safety -scenario trace     # Fig. 2 vs Fig. 8 response-time breakdown
//	gsdb-safety -scenario diskvsnet # Sect. 6: disk force vs atomic broadcast
//	gsdb-safety -all                # everything
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"groupsafe/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "paper table to reproduce (1, 2 or 3)")
	scenario := flag.String("scenario", "", "scenario to run: fig5 | fig7 | trace | diskvsnet")
	all := flag.Bool("all", false, "run every table and scenario")
	servers := flag.Int("servers", 9, "number of servers for Table 1/2")
	flag.Parse()

	ran := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	if *all || *table == 1 {
		ran = true
		printTable1(*servers)
	}
	if *all || *table == 2 {
		ran = true
		if err := printTable2(); err != nil {
			fail(err)
		}
	}
	if *all || *table == 3 {
		ran = true
		if err := printTable3(); err != nil {
			fail(err)
		}
	}
	if *all || *scenario == "fig5" {
		ran = true
		res, err := experiments.RunFigure5()
		if err != nil {
			fail(err)
		}
		fmt.Println("Figure 5 — classical atomic broadcast, total failure, delegate never recovers:")
		fmt.Println("  " + res.String())
		fmt.Println("  => the acknowledged transaction is LOST: the technique is not 2-safe")
		fmt.Println()
	}
	if *all || *scenario == "fig7" {
		ran = true
		res, err := experiments.RunFigure7()
		if err != nil {
			fail(err)
		}
		fmt.Println("Figure 7 — end-to-end atomic broadcast, same crash schedule:")
		fmt.Println("  " + res.String())
		fmt.Println("  => the logged message is replayed after recovery: the technique is 2-safe")
		fmt.Println()
	}
	if *all || *scenario == "trace" {
		ran = true
		res, err := experiments.RunFig2VsFig8Trace(8*time.Millisecond, 70*time.Microsecond, 5)
		if err != nil {
			fail(err)
		}
		fmt.Println("Figure 2 vs Figure 8 — single-transaction response time breakdown:")
		fmt.Printf("  disk force %v, network latency %v\n", res.DiskSyncDelay, res.NetworkLatency)
		fmt.Printf("  group-1-safe (Fig. 2) response: %v\n", res.Group1SafeResponse)
		fmt.Printf("  group-safe   (Fig. 8) response: %v\n", res.GroupSafeResponse)
		fmt.Printf("  savings (≈ disk force taken off the response path): %v\n", res.ResponseTimeSavings)
		fmt.Println()
	}
	if *all || *scenario == "diskvsnet" {
		ran = true
		res, err := experiments.RunDiskVsBroadcast(8*time.Millisecond, 70*time.Microsecond, 9)
		if err != nil {
			fail(err)
		}
		fmt.Println("Section 6 claim — forcing a log vs performing an atomic broadcast:")
		fmt.Printf("  disk force:        %v\n", res.DiskForce)
		fmt.Printf("  atomic broadcast:  %v\n", res.AtomicBroadcast)
		fmt.Printf("  ratio:             %.1fx (broadcast cheaper: %v)\n", res.Ratio, res.BroadcastCheaper)
		fmt.Println()
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func printTable1(servers int) {
	fmt.Printf("Table 1/2 — safety level classification (n = %d servers):\n", servers)
	fmt.Printf("  %-14s %-18s %-16s %-18s\n", "level", "delivered on", "logged on", "tolerated crashes")
	for _, row := range experiments.RunTable1(servers) {
		fmt.Printf("  %-14s %-18s %-16s %-18s\n", row.Level, row.GuaranteedDeliverd, row.GuaranteedLogged, row.ToleratedCrashes)
	}
	fmt.Println()
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
	fmt.Println()
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
	fmt.Println()
	return nil
}
