// Command servebench is the repository's benchmark. It builds one served
// stack in-process from the daemon's own constructors, drives it through
// the real wire clients with a closed loop of two callers, checks every
// output, and prints every metric by name with its unit. See README.md.
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload dpram-mem --seed 1 --seconds 20 --trace 0
//	bash servebench/run.sh compare <results-dir-A> <results-dir-B>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

// resultFile is what one run writes to its results directory.
type resultFile struct {
	Schema    string            `json:"schema"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Started   string            `json:"started"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Details   map[string]any    `json:"details"`
}

// summary is the line the benchmark prints last on standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const resultSchema = "servebench/v1"

func runMain(args []string) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: dpram-mem, pathoram-mem, dpram-wal or plain-mem")
	seed := fs.Int64("seed", 1, "workload seed: record indices and the read/write mix")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 the traced per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result files, spans and durable stacks' data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "servebench: check failed:", e)
	}
	line, err := json.Marshal(summary{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func run(w workload, seed int64, seconds int, traced bool, out string) (*resultFile, error) {
	// A fixed two-way parallelism keeps the load shape of the 2-core
	// host the workloads were designed on, whatever the machine has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	started := time.Now()
	res := &resultFile{
		Schema: resultSchema, Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Started: started.UTC().Format(time.RFC3339), Host: probeHost("."),
	}
	base := filepath.Join(out, fmt.Sprintf("%s-trace%d-seed%d-%d", w.name, b2i(traced), seed, started.UnixNano()))
	tmpDir := filepath.Join(out, "tmp")
	dur := time.Duration(seconds) * time.Second
	var o *outcome
	var err error
	if traced {
		o, err = runTraced(w, seed, dur, tmpDir, filepath.Join(out, w.name+".spans"))
	} else {
		o, err = runEndToEnd(w, seed, dur, tmpDir)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = len(o.errs) == 0
	res.Attempted, res.Failed, res.Errors = o.attempted, o.failed, o.errs
	res.Metrics, res.Details = o.metrics, o.details
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return nil, errors.Join(errors.New("writing the result file"), err)
	}
	fmt.Fprintln(os.Stderr, "servebench: wrote", base+".json")
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
