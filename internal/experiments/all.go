package experiments

// Result is any experiment result: it renders itself as a table.
type Result interface{ Table() *Table }

// Experiment is one entry of the evaluation: the ID its table carries and
// the function that runs it.
type Experiment struct {
	ID  string
	Run func() (Result, error)
}

// All is every experiment, in DESIGN.md §3 order. It is the one list
// `cmd/ebench` runs and the package's test checks, each entry once.
var All = []Experiment{
	{"T1", result(Table1)},
	{"F1", result(Fig1WebService)},
	{"F2", result(Fig2Rebinding)},
	{"E1", result(E1ClusterFuzz)},
	{"E2", result(E2EASBimodal)},
	{"E3", result(E3KubePlacement)},
	{"E4", result(E4Contracts)},
	{"E5", result(E5Extraction)},
	{"E6", result(E6ErrorPropagation)},
	{"E7", result(E7Profiling)},
	{"E8", result(E8PowerProvisioning)},
	{"E9", result(E9DVFS)},
	{"E10", result(E10BatchServing)},
	{"E11", result(E11DaemonServing)},
	{"E12", result(E12LayerCache)},
	{"E13", result(E13Resilience)},
	{"E14", result(E14Drift)},
	{"E16", result(E16Fleet)},
	{"E17", result(E17Wire)},
	{"E18", result(E18SchedFleet)},
	{"E19", result(E19Autoopt)},
	{"A1", result(A1ExactVsMonteCarlo)},
	{"A2", result(A2EILVsNative)},
	{"A3", result(A3LayeredVsMonolithic)},
}

// result adapts an experiment's typed entry point to Experiment.Run.
func result[R Result](run func() (R, error)) func() (Result, error) {
	return func() (Result, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}
