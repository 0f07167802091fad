// Failover: a group-safe cluster keeps serving transactions while a minority
// of the servers is crashed, and the crashed server catches up through state
// transfer when it recovers, all through the public gsdb API.
//
// The total-failure schedules of Figs. 5 and 7 crash each server inside its
// delivery window, which the public API cannot do; the example ends by
// printing the command that replays them on the replication stack.
//
//	go run ./examples/failover
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"groupsafe/gsdb"
)

func main() {
	minorityCrashDemo()
	fmt.Println("=== total failure: classical vs end-to-end atomic broadcast ===")
	fmt.Println("  Figs. 5 and 7 crash every server in its delivery window; replay them with")
	fmt.Println("    go run ./cmd/gsdb-paper -figure 5   # classical abcast: the acknowledged transaction is lost")
	fmt.Println("    go run ./cmd/gsdb-paper -figure 7   # end-to-end abcast (2-safe): it is recovered")
}

func minorityCrashDemo() {
	fmt.Println("=== group-safe replication under a minority crash ===")
	ctx := context.Background()
	client, err := gsdb.Open(ctx,
		gsdb.WithReplicas(3),
		gsdb.WithItems(1000),
		gsdb.WithSafetyLevel(gsdb.GroupSafe),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	write := func(delegate, item int, value int64) {
		res, err := client.Execute(ctx, gsdb.Request{Ops: []gsdb.Op{
			{Item: item, Write: true, Value: value},
		}}, gsdb.Via(delegate))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote item %d = %d via %s (%s)\n", item, value, res.Delegate, res.Outcome)
	}
	waitConsistent := func(timeout time.Duration) error {
		waitCtx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		return client.WaitConsistent(waitCtx)
	}

	write(0, 1, 11)
	_ = waitConsistent(2 * time.Second)

	fmt.Printf("  crashing %s\n", client.ReplicaID(2))
	client.Crash(2)
	client.Suspect(0, 2)
	client.Suspect(1, 2)

	// The group keeps accepting transactions with one server down.
	write(0, 2, 22)
	write(1, 3, 33)

	replayed, err := client.Recover(2)
	if err != nil {
		log.Fatal(err)
	}
	if err := waitConsistent(5 * time.Second); err != nil {
		log.Fatalf("recovered replica did not catch up: %v", err)
	}
	v, _ := client.Value(2, 3)
	fmt.Printf("  recovered %s via state transfer (%d replayed messages); item3=%d on the recovered replica\n\n",
		client.ReplicaID(2), replayed, v)
}
