// Command bench is the serving benchmark: it hosts the system under test
// (one eisvc node, or a fleet behind its router) and a closed-loop load
// generator in one process, talks to it over real loopback TCP on the
// binary wire, and reports end-to-end metrics (tracing off) or per-layer
// metrics (a traced run plus a stage-by-stage replay). README.md says why
// each workload exists and how the metrics relate.
//
//	bash bench/run.sh                                   all workloads, both kinds of run
//	bash bench/run.sh --workload hot_zipf --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// workload is one fixed request stream and the system it runs against.
type workload struct {
	name  string
	fleet bool // 3-node fleet behind the router; else one node
	gen   func(seed int64) *stream
	// oracleLimit caps how many sampled unique answers the interpreter
	// re-evaluates after the window; sized to about two seconds.
	oracleLimit int
}

var workloads = []workload{
	{"hot_zipf", true, hotZipf, 0},
	{"cold_exact", false, coldExact, 96},
	{"mc_sample", false, mcSample, 24},
	{"batch_sched", true, batchSched, 256},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported figure. The driver's line carries value and
// unit; the result file keeps the rest beside it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of standard output: the contract with
// whatever runs the benchmark.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "run one workload (default: all four, each in its own process)")
		seed    = flag.Int64("seed", 1, "stream seed: the same seed gives the same requests")
		seconds = flag.Int("seconds", 20, "how long one run measures")
		trace   = flag.Int("trace", -1, "0: end-to-end run, tracing off; 1: traced run and stage replay (default: both, when running all)")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
		repeats = flag.Int("repeats", 1, "runs per workload when running all")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *repeats, *outDir))
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace < 0 {
		*trace = 0
	}
	cfg := runConfig{wl: wl, seed: *seed, seconds: float64(*seconds), traced: *trace == 1, outDir: *outDir, setups: setupRepeats}
	rec, err := runOne(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rec.print(os.Stderr)
	if err := writeJSON(filepath.Join(*outDir, rec.fileName()), rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(rec.driverLine())
	fmt.Println(string(line))
	if !rec.Correct || rec.Failed > 0 {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
