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

	if err := run(*all, strings.ToLower(*one), *csv, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "ebench:", err)
		os.Exit(1)
	}
}

func run(all bool, one string, csv, verbose bool) error {
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
		t, err := runOne(one, verbose)
		if err != nil {
			return err
		}
		tables = []*experiments.Table{t}
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		var err error
		if csv {
			err = t.CSV(os.Stdout)
		} else {
			err = t.Fprint(os.Stdout)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func runOne(id string, verbose bool) (*experiments.Table, error) {
	switch id {
	case "t1":
		r, err := experiments.Table1()
		if err != nil {
			return nil, err
		}
		if verbose {
			for _, row := range r.Rows {
				fmt.Printf("# %s per-run:\n", row.Device)
				for _, run := range row.PerRun {
					fmt.Printf("#   %3d tokens: predicted %v, measured %v, error %.2f%%\n",
						run.Tokens, run.Predicted, run.Measured, 100*run.RelErr)
				}
			}
		}
		return r.Table(), nil
	case "f1":
		r, err := experiments.Fig1WebService()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "f2":
		r, err := experiments.Fig2Rebinding()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e1":
		r, err := experiments.E1ClusterFuzz()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e2":
		r, err := experiments.E2EASBimodal()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e3":
		r, err := experiments.E3KubePlacement()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e4":
		r, err := experiments.E4Contracts()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e5":
		r, err := experiments.E5Extraction()
		if err != nil {
			return nil, err
		}
		if verbose {
			fmt.Println("# extracted EIL:")
			for _, line := range strings.Split(strings.TrimRight(r.ExtractedEIL, "\n"), "\n") {
				fmt.Println("#   " + line)
			}
		}
		return r.Table(), nil
	case "e6":
		r, err := experiments.E6ErrorPropagation()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e7":
		r, err := experiments.E7Profiling()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e8":
		r, err := experiments.E8PowerProvisioning()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e9":
		r, err := experiments.E9DVFS()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e10":
		r, err := experiments.E10BatchServing()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e11":
		r, err := experiments.E11DaemonServing()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e12":
		r, err := experiments.E12LayerCache()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e13":
		r, err := experiments.E13Resilience()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e14":
		r, err := experiments.E14Drift()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e16":
		r, err := experiments.E16Fleet(false)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e17":
		r, err := experiments.E17Wire()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e18":
		r, err := experiments.E18SchedFleet()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "e19":
		r, err := experiments.E19Autoopt()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "a1":
		r, err := experiments.A1ExactVsMonteCarlo()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "a2":
		r, err := experiments.A2EILVsNative()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	case "a3":
		r, err := experiments.A3LayeredVsMonolithic()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
}
