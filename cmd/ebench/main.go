// Command ebench regenerates the evaluation: every table and figure in
// EXPERIMENTS.md (the paper's Table 1 plus the experiments derived from its
// figures, scenarios, and open questions).
//
// Usage:
//
//	ebench -all                 run every experiment, print all tables
//	ebench -experiment t1       run one experiment (t1, f1, f2, e1..e14, e16..e19, a1..a3)
//	ebench -experiment e5 -v    verbose: include experiment artifacts
//	ebench -all -csv            emit CSV instead of aligned tables
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
	csv := flag.Bool("csv", false, "emit CSV")
	verbose := flag.Bool("v", false, "print experiment artifacts (e.g. extracted EIL)")
	flag.Parse()

	if err := run(os.Stdout, *all, *one, *csv, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "ebench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, all bool, one string, csv, verbose bool) error {
	if !all && one == "" {
		return fmt.Errorf("pass -all or -experiment <id>")
	}
	var tables []*experiments.Table
	if all {
		ts, err := experiments.AllTables()
		if err != nil {
			return err
		}
		tables = ts
	} else {
		t, err := runOne(w, one, verbose)
		if err != nil {
			return err
		}
		tables = []*experiments.Table{t}
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		var err error
		if csv {
			err = t.CSV(w)
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
			return nil, err
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
