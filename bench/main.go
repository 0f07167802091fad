// Command bench is the repository's benchmark: four client-observed
// workloads, a traced run with per-layer probes, and a comparison of two
// reports against the regression bounds.  See README.md in this directory.
//
//	go run ./bench --workload mem-update --seed 1 --seconds 20 --trace 0
//	go run ./bench -seed 1 -out out.json          # every workload, both runs
//	go run ./bench -compare A.json B.json
//
// The last line of standard output of a single-workload run is one JSON
// object: correct, attempted, failed, metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// header records where and on what a report was measured.
type header struct {
	GitSHA     string  `json:"git_sha"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	FileSyncUs float64 `json:"wal_file_sync_us"`
	// Injected: the benchmark adds no network or disk delay anywhere;
	// in-process latency is processor time only, and TCP/fsync figures are
	// this sandbox's loopback and file system, not a device's.
	Injected string `json:"injected_delays"`
}

// report is the file -out writes and -compare reads.
type report struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run (default: all four)")
	seed := fl.Int64("seed", 1, "seed of every generator stream")
	seconds := fl.Float64("seconds", 20, "measured seconds per run, split between the phases")
	trace := fl.Int("trace", -1, "0: timed run (end-to-end metrics); 1: traced run (per-layer metrics); default both")
	runs := fl.Int("runs", 1, "repetitions of every selected run, on seeds seed, seed+1, ...")
	quick := fl.Bool("quick", false, "smoke run: 2 measured seconds, short probes")
	out := fl.String("out", "", "write the full report (header and every run) to this file")
	spans := fl.String("spans", "", "traced runs: write the spans to this file as JSON lines")
	tmp := fl.String("tmp", ".bench_build/tmp", "directory for the TCP workloads' write-ahead logs")
	compare := fl.Bool("compare", false, "compare two reports: bench -compare A.json B.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareReports(fl.Arg(0), fl.Arg(1))
	}

	var chosen []*workloadDef
	for _, def := range workloadDefs() {
		if *workload == "" || *workload == def.name {
			chosen = append(chosen, def)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	traces := []bool{false, true}
	switch *trace {
	case 0:
		traces = traces[:1]
	case 1:
		traces = traces[1:]
	}
	scale := 10
	if *quick {
		*seconds, scale = 2, 1
	}
	ctx := context.Background()

	rep := report{Header: readHeader()}
	ok := true
	for r := 0; r < *runs; r++ {
		for _, def := range chosen {
			for _, traced := range traces {
				cfg := &runConfig{
					def: def, seed: *seed + int64(r), traced: traced,
					seconds: time.Duration(*seconds * float64(time.Second)),
					spans:   *spans, scale: scale, tmp: *tmp,
				}
				res, err := run(ctx, cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
					return 1
				}
				printRun(res)
				ok = ok && res.Correct
				rep.Runs = append(rep.Runs, res)
			}
		}
	}
	if *out != "" {
		if us, _, err := fileSyncUs(*tmp, 100); err == nil {
			rep.Header.FileSyncUs = us
		}
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: write report: %v\n", err)
			return 1
		}
	}
	if len(rep.Runs) == 1 {
		printResultLine(rep.Runs[0])
	}
	if !ok {
		return 1
	}
	return 0
}

// printRun prints every metric of a run by name, with unit and sample count.
func printRun(res *runResult) {
	specs := endToEnd
	if res.Trace == 1 {
		specs = perLayer
	}
	fmt.Printf("# workload=%s trace=%d seed=%d seconds=%g attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Trace, res.Seed, res.Seconds, res.Attempted, res.Failed, res.Correct)
	if res.Error != "" {
		fmt.Printf("# first error: %s\n", res.Error)
	}
	for _, s := range specs {
		v := res.Metrics[s.Name]
		fmt.Printf("%-32s %16.4f %-6s n=%d\n", s.Name, v.Value, v.Unit, v.Samples)
	}
}

// printResultLine prints the driver's contract line: exactly the keys
// correct, attempted, failed and metrics, each metric a value and a unit.
func printResultLine(res *runResult) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]valueUnit, len(res.Metrics))}
	for name, v := range res.Metrics {
		line.Metrics[name] = valueUnit{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	fmt.Println(string(data))
}

func readHeader() header {
	h := header{
		GitSHA: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown", Injected: "none",
	}
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(sha))
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(rel))
	}
	return h
}
