// Lazy vs group-safe, by safety level: runs the same workload at the paper's
// lazy 1-safe baseline (1-safe-lazy) and at group-safe on the one
// certification engine, selected by WithSafetyLevel alone, with a realistic
// (emulated) disk-force latency, and compares client-visible response times,
// abort rates, guarantees and convergence.
// This is the qualitative content of Fig. 9 and Sect. 7 on the real stack
// rather than the simulator, driven through the public gsdb API.
//
//	go run ./examples/lazyvsgroup
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"time"

	"groupsafe/gsdb"
)

const transactions = 100

func main() {
	for _, level := range []gsdb.SafetyLevel{gsdb.Safety1Lazy, gsdb.GroupSafe} {
		runLevel(level)
	}
	fmt.Println()
	fmt.Println("lazy replication (1-safe) pays the disk force on the response path AND can")
	fmt.Println("lose acknowledged transactions when the delegate crashes; updating")
	fmt.Println("everywhere without certification, it can also leave conflicting writes")
	fmt.Println("applied in different orders (consistent=false).  Group-safe")
	fmt.Println("certification moves the force off the response path — an atomic broadcast")
	fmt.Println("is cheaper than a disk force (Sect. 6) — while guaranteeing delivery at")
	fmt.Println("every available server (Table 1, Fig. 9).")
}

func runLevel(level gsdb.SafetyLevel) {
	ctx := context.Background()
	client, err := gsdb.Open(ctx,
		gsdb.WithReplicas(3),
		gsdb.WithItems(5000),
		gsdb.WithSafetyLevel(level),
		gsdb.WithDiskSyncDelay(4*time.Millisecond), // emulated log-force cost
		gsdb.WithExecTimeout(20*time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	gen := gsdb.NewWorkload(gsdb.WorkloadConfig{Items: 5000, MinOps: 5, MaxOps: 10, WriteProb: 0.5}, 7)
	var responses []time.Duration
	commits, aborts := 0, 0
	for i := 0; i < transactions; i++ {
		delegate := i % client.Size()
		start := time.Now()
		res, err := client.Execute(ctx, gsdb.RequestFromWorkload(gen.Next(0, delegate)), gsdb.Via(delegate))
		if err != nil {
			log.Fatal(err)
		}
		responses = append(responses, time.Since(start))
		if res.Committed() {
			commits++
		} else {
			aborts++
		}
	}
	waitCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	consistent := client.WaitConsistent(waitCtx) == nil
	cancel()
	mean, p95 := meanAndP95(responses)
	fmt.Printf("%-12s mean=%6.2f ms  p95=%6.2f ms  commits=%d aborts=%d  delivered-everywhere=%-5v consistent=%v\n",
		client.Level(), mean, p95, commits, aborts,
		client.Level().UsesGroupCommunication(), consistent)
}

// meanAndP95 returns the mean and the 95th percentile of the response times
// in milliseconds; the percentile is the nearest rank of the sorted times.
func meanAndP95(responses []time.Duration) (mean, p95 float64) {
	slices.Sort(responses)
	var sum time.Duration
	for _, d := range responses {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return ms(sum) / float64(len(responses)), ms(responses[(len(responses)*95+99)/100-1])
}
