package core

import (
	"context"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"
	"time"

	"groupsafe/internal/workload"
)

// TestTxnPayloadRoundTrip checks the binary transaction-payload codec against
// randomized read sets and write sets, including slice reuse across decodes.
func TestTxnPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rec txnRecord // reused across iterations, like the apply loop's arena
	for trial := 0; trial < 200; trial++ {
		readVers := make(map[int]uint64)
		writes := make(map[int]int64)
		for i := rng.Intn(12); i > 0; i-- {
			readVers[rng.Intn(10000)] = uint64(rng.Int63())
		}
		for i := rng.Intn(12); i > 0; i-- {
			writes[rng.Intn(10000)] = rng.Int63() - rng.Int63()
		}
		id := uint64(rng.Int63())
		level := AllLevels()[rng.Intn(len(AllLevels()))]
		payload := encodeTxnPayload(phaseNone, id, "s1", level, 0, readVers, writes)

		if err := decodeTxnRecord(payload, &rec); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if rec.TxnID != id || rec.Delegate != "s1" || rec.Level != level {
			t.Fatalf("trial %d: header mismatch: %+v", trial, rec)
		}
		if len(rec.Reads) != len(readVers) || len(rec.Writes) != len(writes) {
			t.Fatalf("trial %d: length mismatch", trial)
		}
		for i, rv := range rec.Reads {
			if readVers[rv.Item] != rv.Ver {
				t.Fatalf("trial %d: read %d mismatch: %+v", trial, i, rv)
			}
			if i > 0 && rec.Reads[i-1].Item >= rv.Item {
				t.Fatalf("trial %d: reads not sorted", trial)
			}
		}
		for i, w := range rec.Writes {
			if writes[w.Item] != w.Value {
				t.Fatalf("trial %d: write %d mismatch: %+v", trial, i, w)
			}
			if i > 0 && rec.Writes[i-1].Item >= w.Item {
				t.Fatalf("trial %d: writes not sorted", trial)
			}
		}
	}
}

// TestTxnPayloadDecodeRejectsGarbage checks that truncated or corrupt
// payloads fail to decode instead of producing a bogus record.
func TestTxnPayloadDecodeRejectsGarbage(t *testing.T) {
	payload := encodeTxnPayload(phaseNone, 42, "s1", Group1Safe, 0, map[int]uint64{1: 2}, map[int]int64{3: 4})
	var rec txnRecord
	for cut := 0; cut < len(payload); cut++ {
		if err := decodeTxnRecord(payload[:cut], &rec); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	bad := append([]byte{}, payload...)
	bad[0] = 0x00
	if err := decodeTxnRecord(bad, &rec); err == nil {
		t.Fatal("bad magic byte decoded successfully")
	}
}

// goldenPayload is one broadcast payload pinned byte for byte: every replica
// of a group must decode what any other one encodes.
type goldenPayload struct {
	name, want string // want is the encoding in hex
	encode     func() []byte
}

// goldenPayloads covers every layout: one-shot, prepare, both decides and
// active replication's operation list.
func goldenPayloads() []goldenPayload {
	reads := map[int]uint64{9: 3, 2: 1, 300: 70000}
	writes := map[int]int64{4: -5, 1: 12, 1000: 1 << 40}
	ops := []workload.Op{{Item: 5}, {Item: 7, Write: true, Value: -9}, {Item: 5, Write: true, Value: 1 << 33}}
	return []goldenPayload{
		{"txn", "a78780808080808001027332040302010903ac02f0a2040301180409e807808080808040",
			func() []byte { return encodeTxnPayload(phaseNone, 0x2_0000_0000_0007, "s2", Safety2, 0, reads, writes) }},
		{"prepare", "a901838080808080806802733102020302010903ac02f0a2040301180409e807808080808040",
			func() []byte {
				return encodeTxnPayload(phasePrepare, 0xD0_0000_0000_0003, "s1", GroupSafe, 2, reads, writes)
			}},
		{"decide-commit", "a90283808080808080680273310200000301180409e807808080808040",
			func() []byte {
				return encodeTxnPayload(phaseDecideCommit, 0xD0_0000_0000_0003, "s1", GroupSafe, 0, nil, writes)
			}},
		{"decide-abort", "a903838080808080806802733105000000",
			func() []byte {
				return encodeTxnPayload(phaseDecideAbort, 0xD0_0000_0000_0003, "s1", VerySafe, 0, nil, nil)
			}},
		{"ops", "a8818080808080c0010273330303000501071101058080808040",
			func() []byte { return encodeOpsPayload(0x3_0000_0000_0001, "s3", Group1Safe, ops) }},
	}
}

func TestPayloadGoldenBytes(t *testing.T) {
	cases := goldenPayloads()
	for _, tc := range cases {
		if got := hex.EncodeToString(tc.encode()); got != tc.want {
			t.Errorf("%s payload = %s, want %s", tc.name, got, tc.want)
		}
	}
	var rec txnRecord
	if err := decodeTxnRecord(cases[1].encode(), &rec); err != nil || rec.Phase != phasePrepare || rec.Coord != 2 || rec.Delegate != "s1" || len(rec.Reads) != 3 || len(rec.Writes) != 3 {
		t.Fatalf("prepare decodes to %+v, %v", rec, err)
	}
}

// TestApplyOneCopyEquivalence runs a conflicting concurrent workload: all
// replicas must converge to identical store bytes.  Under -race it doubles
// as the data race check of the batch force overlapping the installs.
func TestApplyOneCopyEquivalence(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		Replicas: 3,
		Items:    96, // small database: plenty of intra-batch conflicts
		Level:    GroupSafe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const clients, txnsPerClient = 8, 40
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := workload.NewGenerator(workload.Config{
				Items: 96, MinOps: 2, MaxOps: 6, WriteProb: 0.6,
			}, int64(c+1))
			delegate := c % cluster.Size()
			for i := 0; i < txnsPerClient; i++ {
				if _, err := cluster.Execute(context.Background(), delegate, RequestFromWorkload(gen.Next(0, delegate))); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// One-copy equivalence: every replica certified and installed the same
	// totally-ordered prefix, so after the queues drain the three stores
	// must be byte-identical (values AND versions).
	if !waitConsistent(cluster, 5*time.Second) {
		t.Fatal("replicas did not converge to identical state")
	}
}

// TestApplyConcurrentRecovery crashes and recovers a replica while
// concurrent clients keep the apply pipeline busy on the survivors — the
// race-detector test for concurrent install + recovery (state transfer,
// store restore, apply-loop teardown/rebuild).
func TestApplyConcurrentRecovery(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		Replicas: 3,
		Items:    128,
		Level:    GroupSafe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := workload.NewGenerator(workload.Config{
				Items: 128, MinOps: 2, MaxOps: 5, WriteProb: 0.6,
			}, int64(100+c))
			// Delegates 0 and 1 stay up; replica 2 is the crash victim.
			delegate := c % 2
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = cluster.Execute(context.Background(), delegate, RequestFromWorkload(gen.Next(0, delegate)))
			}
		}(c)
	}

	for round := 0; round < 3; round++ {
		time.Sleep(20 * time.Millisecond)
		cluster.Crash(2)
		time.Sleep(20 * time.Millisecond)
		if _, err := cluster.Recover(2); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: recover: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()

	// Under continuous traffic a classical-abcast recovery can permanently
	// miss sequences ordered inside the recovery window (the very gap the
	// paper's end-to-end broadcast closes), so the convergence assertion uses
	// a final quiesced state transfer: crash the victim, let the survivors
	// drain and agree, then hand the victim a snapshot of the settled state.
	cluster.Crash(2)
	if !waitConsistent(cluster, 5*time.Second) {
		t.Fatal("surviving replicas did not converge after crash/recovery rounds")
	}
	if _, err := cluster.Recover(2); err != nil {
		t.Fatalf("final recover: %v", err)
	}
	if !waitConsistent(cluster, 5*time.Second) {
		t.Fatal("recovered replica did not converge to the settled state")
	}
}
