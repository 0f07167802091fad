package simrep

import (
	"fmt"
	"time"

	"groupsafe/internal/core"
)

// Config is the simulator parameter set; the defaults reproduce Table 4 of
// the paper.
type Config struct {
	// Servers is the number of replica servers (Table 4: 9).
	Servers int
	// ClientsPerServer bounds the number of concurrently executing
	// transactions per delegate (Table 4: 4).
	ClientsPerServer int
	// Items is the number of items in the database (Table 4: 10'000).
	Items int
	// CPUsPerServer and DisksPerServer size the per-server resources
	// (Table 4: 2 and 2).  A server installs as many write sets at once as
	// it has disks.
	CPUsPerServer  int
	DisksPerServer int
	// MinOps/MaxOps bound the transaction length (Table 4: 10–20), WriteProb
	// is the probability that an operation is a write (Table 4: 0.5).
	MinOps    int
	MaxOps    int
	WriteProb float64
	// BufferHitRatio is the probability that an operation finds its page in
	// the buffer and needs no disk access (Table 4: 0.2).
	BufferHitRatio float64
	// DiskAccessMin/Max is the duration of one disk access (Table 4: 4–12 ms).
	DiskAccessMin time.Duration
	DiskAccessMax time.Duration
	// CPUPerIO is the CPU time consumed by an I/O operation (Table 4: 0.4 ms).
	CPUPerIO time.Duration
	// NetworkDelay is the time one message or broadcast occupies the network
	// (Table 4: 0.07 ms); CPUPerNetworkOp is the CPU cost of a network
	// operation (Table 4: 0.07 ms).
	NetworkDelay    time.Duration
	CPUPerNetworkOp time.Duration
	// CertifyCPU is the CPU cost of certifying one transaction.
	CertifyCPU time.Duration
	// Duration is the simulated time during which transactions are generated.
	Duration time.Duration
	// WarmupFraction of Duration is discarded from the statistics.
	WarmupFraction float64
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultConfig returns the Table 4 parameters with a 2-minute simulated run.
func DefaultConfig() Config {
	return Config{
		Servers:          9,
		ClientsPerServer: 4,
		Items:            10000,
		CPUsPerServer:    2,
		DisksPerServer:   2,
		MinOps:           10,
		MaxOps:           20,
		WriteProb:        0.5,
		BufferHitRatio:   0.2,
		DiskAccessMin:    4 * time.Millisecond,
		DiskAccessMax:    12 * time.Millisecond,
		CPUPerIO:         400 * time.Microsecond,
		NetworkDelay:     70 * time.Microsecond,
		CPUPerNetworkOp:  70 * time.Microsecond,
		CertifyCPU:       300 * time.Microsecond,
		Duration:         2 * time.Minute,
		WarmupFraction:   0.1,
		Seed:             1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Servers < 3 {
		return fmt.Errorf("simrep: at least 3 servers are required, got %d", c.Servers)
	}
	if c.ClientsPerServer < 1 || c.Items < 1 || c.CPUsPerServer < 1 || c.DisksPerServer < 1 {
		return fmt.Errorf("simrep: resource counts must be positive")
	}
	if c.MinOps < 1 || c.MaxOps < c.MinOps {
		return fmt.Errorf("simrep: invalid operation bounds [%d,%d]", c.MinOps, c.MaxOps)
	}
	if c.WriteProb < 0 || c.WriteProb > 1 || c.BufferHitRatio < 0 || c.BufferHitRatio > 1 {
		return fmt.Errorf("simrep: probabilities must be in [0,1]")
	}
	if c.DiskAccessMin <= 0 || c.DiskAccessMax < c.DiskAccessMin {
		return fmt.Errorf("simrep: invalid disk access times")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("simrep: duration must be positive")
	}
	if c.WarmupFraction < 0 || c.WarmupFraction >= 1 {
		return fmt.Errorf("simrep: warmup fraction must be in [0,1)")
	}
	return nil
}

// Result summarises one simulation run (one safety level at one offered
// load).
type Result struct {
	Level core.SafetyLevel
	// Seed is the configuration seed the run was driven by, carried into the
	// result so a surprising row can be replayed deterministically.
	Seed int64
	// LoadTPS is the offered load in transactions per second.
	LoadTPS float64
	// Completed, Committed and Aborted count terminated transactions after
	// warm-up.
	Completed uint64
	Committed uint64
	Aborted   uint64
	// ResponseMeanMs / ResponseP95Ms are response-time statistics in
	// milliseconds (committed and aborted transactions alike, as observed by
	// the client).
	ResponseMeanMs float64
	ResponseP95Ms  float64
	// AbortRate is Aborted / Completed.
	AbortRate float64
	// ThroughputTPS is the measured completion rate.
	ThroughputTPS float64
	// DiskUtilization and NetworkUtilization are resource utilisations
	// averaged over servers.
	DiskUtilization    float64
	NetworkUtilization float64
}

// String renders one row of the Fig. 9 data set.
func (r Result) String() string {
	return fmt.Sprintf("%-13s load=%5.1f tps  resp=%7.1f ms  p95=%7.1f ms  abort=%4.1f%%  thr=%5.1f tps  disk=%4.0f%%",
		r.Level, r.LoadTPS, r.ResponseMeanMs, r.ResponseP95Ms, 100*r.AbortRate, r.ThroughputTPS, 100*r.DiskUtilization)
}
