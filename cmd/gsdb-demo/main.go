// Command gsdb-demo starts an in-process replicated database cluster through
// the public gsdb API, drives it with the Table 4 workload, injects a crash
// and a recovery, and prints the observed response times and consistency
// status.  It is the quickest way to see the replication stack (atomic
// broadcast, certification, safety levels, crash recovery) working end to
// end.
//
// Usage:
//
//	gsdb-demo -level group-safe -replicas 3 -txns 200 -disk-sync 2ms
//	gsdb-demo -level 1-safe-lazy -txns 200        # the lazy 1-safe baseline
//	gsdb-demo -mix-safety very-safe -txns 200   # every 10th txn overridden
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"groupsafe/gsdb"
	"groupsafe/internal/stats"
)

func main() {
	levelFlag := flag.String("level", "group-safe", "safety level: 0-safe | 1-safe-lazy | group-safe | group-1-safe | 2-safe | very-safe")
	replicas := flag.Int("replicas", 3, "number of replica servers")
	txns := flag.Int("txns", 200, "number of transactions to run")
	diskSync := flag.Duration("disk-sync", 2*time.Millisecond, "emulated log-force latency")
	netLatency := flag.Duration("net-latency", 70*time.Microsecond, "emulated one-way network latency")
	crash := flag.Bool("crash", true, "crash and recover one replica mid-run")
	seed := flag.Int64("seed", 1, "workload seed")
	mixSafety := flag.String("mix-safety", "", "per-transaction safety override applied to every 10th transaction (e.g. very-safe)")
	readFraction := flag.Float64("read-fraction", 0, "fraction of transactions that are pure read-only queries (0: Table 4 mix)")
	queryKeys := flag.Int("query-keys", 0, "keys read per query transaction (0: transaction-length bounds)")
	flag.Parse()

	ctx := context.Background()

	level, err := gsdb.ParseLevel(*levelFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var overrideLevel *gsdb.SafetyLevel
	if *mixSafety != "" {
		l, err := gsdb.ParseLevel(*mixSafety)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		overrideLevel = &l
	}

	client, err := gsdb.Open(ctx,
		gsdb.WithReplicas(*replicas),
		gsdb.WithItems(10000),
		gsdb.WithSafetyLevel(level),
		gsdb.WithDiskSyncDelay(*diskSync),
		gsdb.WithNetworkLatency(*netLatency),
		gsdb.WithExecTimeout(15*time.Second),
		gsdb.WithSeed(*seed),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer client.Close()

	fmt.Printf("started %d-replica cluster: safety level %s\n", *replicas, client.Level())
	wcfg := gsdb.DefaultWorkloadConfig()
	wcfg.ReadFraction = *readFraction
	wcfg.QueryMinOps = *queryKeys
	wcfg.QueryMaxOps = *queryKeys
	gen := gsdb.NewWorkload(wcfg, *seed)
	sample := stats.NewSample()
	commits, aborts, overridden := 0, 0, 0
	crashAt := *txns / 3
	recoverAt := 2 * *txns / 3

	for i := 0; i < *txns; i++ {
		if *crash && i == crashAt && *replicas >= 3 {
			fmt.Printf("  [txn %d] crashing replica %s\n", i, client.ReplicaID(*replicas-1))
			client.Crash(*replicas - 1)
			for j := 0; j < *replicas-1; j++ {
				client.Suspect(j, *replicas-1)
			}
		}
		if *crash && i == recoverAt && *replicas >= 3 {
			replayed, err := client.Recover(*replicas - 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "recover:", err)
				os.Exit(1)
			}
			fmt.Printf("  [txn %d] recovered replica %s (state transfer + %d replayed messages)\n",
				i, client.ReplicaID(*replicas-1), replayed)
		}
		delegate := i % (*replicas)
		if client.ReplicaCrashed(delegate) {
			delegate = (delegate + 1) % *replicas
		}
		opts := []gsdb.TxnOption{gsdb.Via(delegate)}
		if overrideLevel != nil && i%10 == 0 {
			opts = append(opts, gsdb.WithSafety(*overrideLevel))
			overridden++
		}
		start := time.Now()
		res, err := client.Execute(ctx, gsdb.RequestFromWorkload(gen.Next(0, delegate)), opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "execute:", err)
			os.Exit(1)
		}
		sample.AddDuration(time.Since(start))
		if res.Committed() {
			commits++
		} else {
			aborts++
		}
	}

	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	consistentErr := client.WaitConsistent(waitCtx)
	cancel()
	total := client.TotalStats()
	fmt.Printf("\nresults:\n")
	fmt.Printf("  transactions: %d committed, %d aborted (abort rate %.1f%%)\n",
		commits, aborts, 100*float64(aborts)/float64(commits+aborts))
	if overridden > 0 {
		fmt.Printf("  per-transaction safety overrides: %d txns at %s (%d very-safe acks on the wire)\n",
			overridden, *mixSafety, total.AcksSent)
	}
	fmt.Printf("  response time: mean %.2f ms, p95 %.2f ms, max %.2f ms\n",
		sample.Mean(), sample.Percentile(95), sample.Max())
	if total.Queries > 0 {
		fmt.Printf("  read-only queries: %d served locally with zero broadcasts\n", total.Queries)
	}
	fmt.Printf("  deliveries across replicas: %d, lazy applies: %d\n", total.Delivered, total.LazyApply)
	fmt.Printf("  all live replicas consistent: %v\n", consistentErr == nil)
	if consistentErr != nil && level == gsdb.Safety1Lazy {
		fmt.Printf("  (lazy replication gives no consistency guarantee under concurrent conflicting updates: %v)\n", consistentErr)
	}
}
