package experiments

import (
	"fmt"
	"sync"
)

// AllTables runs every experiment and returns the full set of result
// tables in DESIGN.md §3 order. It is the backing of `cmd/ebench -all` and
// of EXPERIMENTS.md. Experiments are independent (each builds its own
// seeded rigs), so they run concurrently under a small worker bound; the
// returned order is always the declaration order.
func AllTables() ([]*Table, error) {
	steps := []struct {
		id  string
		run func() (*Table, error)
	}{
		{"T1", func() (*Table, error) { r, err := Table1(); return tab(r, err) }},
		{"F1", func() (*Table, error) { r, err := Fig1WebService(); return tab(r, err) }},
		{"F2", func() (*Table, error) { r, err := Fig2Rebinding(); return tab(r, err) }},
		{"E1", func() (*Table, error) { r, err := E1ClusterFuzz(); return tab(r, err) }},
		{"E2", func() (*Table, error) { r, err := E2EASBimodal(); return tab(r, err) }},
		{"E3", func() (*Table, error) { r, err := E3KubePlacement(); return tab(r, err) }},
		{"E4", func() (*Table, error) { r, err := E4Contracts(); return tab(r, err) }},
		{"E5", func() (*Table, error) { r, err := E5Extraction(); return tab(r, err) }},
		{"E6", func() (*Table, error) { r, err := E6ErrorPropagation(); return tab(r, err) }},
		{"E7", func() (*Table, error) { r, err := E7Profiling(); return tab(r, err) }},
		{"E8", func() (*Table, error) { r, err := E8PowerProvisioning(); return tab(r, err) }},
		{"E9", func() (*Table, error) { r, err := E9DVFS(); return tab(r, err) }},
		{"E10", func() (*Table, error) { r, err := E10BatchServing(); return tab(r, err) }},
		{"E11", func() (*Table, error) { r, err := E11DaemonServing(); return tab(r, err) }},
		{"E12", func() (*Table, error) { r, err := E12LayerCache(); return tab(r, err) }},
		{"E13", func() (*Table, error) { r, err := E13Resilience(); return tab(r, err) }},
		{"E14", func() (*Table, error) { r, err := E14Drift(); return tab(r, err) }},
		{"E16", func() (*Table, error) { r, err := E16Fleet(false); return tab(r, err) }},
		{"E17", func() (*Table, error) { r, err := E17Wire(); return tab(r, err) }},
		{"E18", func() (*Table, error) { r, err := E18SchedFleet(); return tab(r, err) }},
		{"E19", func() (*Table, error) { r, err := E19Autoopt(); return tab(r, err) }},
		{"A1", func() (*Table, error) { r, err := A1ExactVsMonteCarlo(); return tab(r, err) }},
		{"A2", func() (*Table, error) { r, err := A2EILVsNative(); return tab(r, err) }},
		{"A3", func() (*Table, error) { r, err := A3LayeredVsMonolithic(); return tab(r, err) }},
	}

	tables := make([]*Table, len(steps))
	errs := make([]error, len(steps))
	sem := make(chan struct{}, 4) // bound concurrent rigs; each is CPU-heavy
	var wg sync.WaitGroup
	for i, s := range steps {
		wg.Add(1)
		go func(i int, id string, run func() (*Table, error)) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t, err := run()
			if err != nil {
				errs[i] = fmt.Errorf("experiments: %s: %w", id, err)
				return
			}
			tables[i] = t
		}(i, s.id, s.run)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// tabler is any experiment result that can render itself.
type tabler interface{ Table() *Table }

func tab(r tabler, err error) (*Table, error) {
	if err != nil {
		return nil, err
	}
	return r.Table(), nil
}
