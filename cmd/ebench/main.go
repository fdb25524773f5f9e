// Command ebench regenerates the evaluation: every table and figure in
// EXPERIMENTS.md (the paper's Table 1 plus the experiments derived from its
// figures, scenarios, and open questions).
//
// Usage:
//
//	ebench -all                 run every experiment, one after another, print all tables
//	ebench -experiment t1       run one experiment (t1, f1, f2, e1..e14, e16..e19, a1..a3)
//	ebench -experiment e5 -v    verbose: include experiment artifacts
//	ebench -experiment t1 -md   emit Markdown, the form EXPERIMENTS.md and README.md hold
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"energyclarity/internal/experiments"
)

func main() {
	all := flag.Bool("all", false, "run every experiment")
	one := flag.String("experiment", "", "run one experiment: t1,f1,f2,e1..e14,e16..e19,a1..a3")
	md := flag.Bool("md", false, "emit Markdown")
	verbose := flag.Bool("v", false, "print experiment artifacts (e.g. extracted EIL)")
	flag.Parse()

	if err := run(os.Stdout, *all, *one, *md, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "ebench:", err)
		os.Exit(1)
	}
}

// run prints the selected tables. -all runs the experiments one after
// another, so every number it prints was measured with nothing else
// running in the process.
func run(w io.Writer, all bool, one string, md, verbose bool) error {
	if !all && one == "" {
		return fmt.Errorf("pass -all or -experiment <id>")
	}
	ids := []string{one}
	if all {
		ids = ids[:0]
		for _, e := range experiments.All {
			ids = append(ids, e.ID)
		}
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(w)
		}
		t, err := runOne(w, id, verbose)
		if err != nil {
			return err
		}
		if md {
			err = t.Markdown(w)
		} else {
			err = t.Fprint(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func runOne(w io.Writer, id string, verbose bool) (*experiments.Table, error) {
	for _, e := range experiments.All {
		if !strings.EqualFold(e.ID, id) {
			continue
		}
		r, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		if verbose {
			printArtifacts(w, r)
		}
		return r.Table(), nil
	}
	return nil, fmt.Errorf("unknown experiment %q", id)
}

// printArtifacts prints what -v adds to a result's table: T1's per-run
// predictions and E5's extracted EIL.
func printArtifacts(w io.Writer, r experiments.Result) {
	switch r := r.(type) {
	case *experiments.Table1Result:
		for _, row := range r.Rows {
			fmt.Fprintf(w, "# %s per-run:\n", row.Device)
			for _, run := range row.PerRun {
				fmt.Fprintf(w, "#   %3d tokens: predicted %v, measured %v, error %.2f%%\n",
					run.Tokens, run.Predicted, run.Measured, 100*run.RelErr)
			}
		}
	case *experiments.E5Result:
		fmt.Fprintln(w, "# extracted EIL:")
		for _, line := range strings.Split(strings.TrimRight(r.ExtractedEIL, "\n"), "\n") {
			fmt.Fprintln(w, "#   "+line)
		}
	}
}
