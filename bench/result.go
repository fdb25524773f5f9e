package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint says where and from what a result came, so two result
// files are only compared knowingly.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"git_commit"`
}

func readFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     gitCommit(".git"),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from a .git directory without running git: the
// benchmark is also run from plain checkouts, where it answers "unknown".
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(dir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// resultFile is what running every workload leaves behind and what
// compare reads: every run's full record under one fingerprint.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Runs        []record    `json:"runs"`
}

// runAll runs every workload in a process of its own, exactly as a
// driver would, and gathers the records into <out>/result.json. It
// returns the exit code: non-zero if any run failed a request, differed
// from the oracle or broke its workload's invariant.
func runAll(seed int64, seconds, trace, repeats int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	kinds := []int{0, 1}
	if trace >= 0 {
		kinds = []int{trace}
	}
	res := resultFile{Fingerprint: readFingerprint(), Seed: seed, Seconds: seconds}
	code := 0
	for _, wl := range workloads {
		for rep := 0; rep < repeats; rep++ {
			for _, kind := range kinds {
				cmd := exec.Command(self, "--workload", wl.name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(kind), "--out", outDir)
				var rec record
				rec.Workload, rec.Traced = wl.name, kind == 1
				recPath := filepath.Join(outDir, rec.fileName())
				_ = os.Remove(recPath) // a stale record must not pass for this run's
				cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s --trace %d: %v\n", wl.name, kind, err)
					code = 1
				}
				data, err := os.ReadFile(recPath)
				if err == nil {
					err = json.Unmarshal(data, &rec)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s --trace %d left no record: %v\n", wl.name, kind, err)
					code = 1
					continue
				}
				res.Runs = append(res.Runs, rec)
			}
		}
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%-12s %-20s %14s %s\n", "workload", "metric", "value", "unit")
	for _, rec := range res.Runs {
		if rec.Traced {
			continue
		}
		for _, n := range e2eNames {
			fmt.Printf("%-12s %-20s %14.4f %s\n", rec.Workload, n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
		}
		fmt.Printf("%-12s %-20s %14.6f %s\n", rec.Workload, "failed_share", ratio(float64(rec.Failed), float64(rec.Attempted)), "ratio")
		fmt.Printf("%-12s %-20s %14.6f %s\n", rec.Workload, "mismatch_share", ratio(float64(rec.Mismatched), float64(rec.Checked)), "ratio")
	}
	fmt.Println("wrote", path)
	return code
}
