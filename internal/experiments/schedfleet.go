package experiments

import (
	"context"
	"fmt"

	"energyclarity/internal/eisvc"
	"energyclarity/internal/fleet"
	"energyclarity/internal/schedsvc"
)

// E18 is the cluster-scheduling experiment the §1 vignettes have been
// waiting for since v0: the standalone EAS and Kubernetes simulations
// (E2, E3) rebuilt as a *fleet client*. A scheduler managing thousands of
// nodes and a million tasks resolves every demand estimate and every
// candidate (node, DVFS level) price by querying energy interfaces it
// registered on a live fleet router — binary wire, one canonical
// /v1/evalbatch per scheduling round — and places work under three
// policies:
//
//   - utilization-based: static requests plus an EWMA usage signal with
//     saturation doubling, biggest boxes first at top DVFS (today's
//     schedulers; no fleet queries);
//   - interface-driven: declared demand and per-level marginal cost from
//     the fleet, cheapest joules per cycle first;
//   - carbon-aware: the same, reweighted by each region's time-varying
//     grid intensity, so placement migrates toward the cleaner region
//     even when its silicon burns more joules per cycle.
//
// The run also re-executes the interface policy and asserts the
// placement digests match bit-for-bit — the determinism criterion the
// PR's sched fixes exist to uphold.

// e18Config builds the two-region cluster. The energy optimum and the
// carbon optimum deliberately disagree: std-south has the cheapest
// marginal joules per cycle (7 nJ at its lowest operating point), but
// south's grid is ~4x dirtier than north's on average.
func e18Config() schedsvc.Config {
	return schedsvc.Config{
		Nodes: []schedsvc.NodeClass{
			{
				Name: "eff-north", Region: "north", Count: 2000, IdleW: 12,
				Levels: []schedsvc.OperatingPoint{
					{CyclesPerSec: 1.2e9, ActiveW: 21.6}, // 8 nJ/cycle marginal
					{CyclesPerSec: 2.4e9, ActiveW: 40.8}, // 12 nJ
					{CyclesPerSec: 3.6e9, ActiveW: 69.6}, // 16 nJ — headroom for carbon migration
				},
			},
			{
				Name: "std-south", Region: "south", Count: 1500, IdleW: 30,
				Levels: []schedsvc.OperatingPoint{
					{CyclesPerSec: 4e9, ActiveW: 58},     // 7 nJ — joules optimum
					{CyclesPerSec: 8e9, ActiveW: 126},    // 12 nJ
					{CyclesPerSec: 1.2e10, ActiveW: 246}, // 18 nJ
				},
			},
			{
				Name: "big-south", Region: "south", Count: 500, IdleW: 80,
				Levels: []schedsvc.OperatingPoint{
					{CyclesPerSec: 2e10, ActiveW: 380},   // 15 nJ
					{CyclesPerSec: 3.2e10, ActiveW: 752}, // 21 nJ — baseline's pick
				},
			},
		},
		Tasks: []schedsvc.TaskClass{
			{Name: "transcode", PeakCycles: 1.2e7, TroughCycles: 1.5e6,
				PeakLen: 3, TroughLen: 3, RequestCycles: 6e6},
			{Name: "kv", PeakCycles: 3e6, TroughCycles: 1e6,
				PeakLen: 2, TroughLen: 4, RequestCycles: 2e6},
			{Name: "batchjob", PeakCycles: 4e7, TroughCycles: 4e6,
				PeakLen: 4, TroughLen: 8, RequestCycles: 1.25e7},
			{Name: "burst", PeakCycles: 6e7, TroughCycles: 1e6,
				PeakLen: 1, TroughLen: 5, RequestCycles: 5e6},
		},
		Groups: []schedsvc.TaskGroup{
			{Class: "transcode", Phase: 0, N: 140000},
			{Class: "transcode", Phase: 2, N: 130000},
			{Class: "transcode", Phase: 4, N: 130000},
			{Class: "kv", Phase: 0, N: 200000},
			{Class: "kv", Phase: 3, N: 200000},
			{Class: "batchjob", Phase: 0, N: 80000},
			{Class: "batchjob", Phase: 6, N: 70000},
			{Class: "burst", Phase: 0, N: 25000},
			{Class: "burst", Phase: 3, N: 25000},
		},
		Margin: 0.05,
		// Antiphase diurnal traces that cross: north (hydro + solar) swings
		// 50-450 g/kWh, south (coal-heavy) 180-780 in opposite phase, so
		// the cleaner region flips over the day and carbon-aware placement
		// has to migrate work, not just pick a winner once.
		Carbon: schedsvc.CarbonTrace{
			"north": {Base: 250, Amp: 200, Period: 12},
			"south": {Base: 480, Amp: 300, Period: 12, Phase: 6},
		},
	}
}

// E18Result carries the three policy runs and the determinism check.
type E18Result struct {
	Nodes, Tasks, Rounds int
	FleetNodes           int
	Utilization          schedsvc.Result
	Interface            schedsvc.Result
	Carbon               schedsvc.Result
	// EnergySavings is the interface policy's energy reduction vs the
	// utilization baseline; CarbonCut the carbon policy's grams reduction
	// vs the interface policy.
	EnergySavings float64
	CarbonCut     float64
	// Deterministic reports whether re-running the interface policy
	// reproduced the placement digest bit-for-bit.
	Deterministic bool
	// HitRate is the fraction of the fleet-backed policies' batch items
	// answered from memo, dedup, peers, or coalescing — canonical round
	// queries should make this approach 1 after warmup.
	HitRate float64
}

const (
	e18FleetNodes = 4
	e18Rounds     = 12
)

// E18SchedFleet runs the scheduling comparison (~4000 nodes, ~1M tasks,
// 12 rounds) against a live fleet router.
func E18SchedFleet() (*E18Result, error) {
	cfg := e18Config()
	_, _, base, stop, err := startFleet(fleet.Config{Nodes: e18FleetNodes}, nil)
	if err != nil {
		return nil, err
	}
	defer stop()

	client := eisvc.NewClient(base)
	client.ID = "schedsvc-e18"
	sched, err := schedsvc.New(cfg, client)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := sched.Register(ctx); err != nil {
		return nil, err
	}

	res := &E18Result{
		Nodes: cfg.TotalNodes(), Tasks: cfg.TotalTasks(),
		Rounds: e18Rounds, FleetNodes: e18FleetNodes,
	}
	if res.Utilization, err = sched.Run(ctx, schedsvc.PolicyUtilization, e18Rounds); err != nil {
		return nil, err
	}
	if res.Interface, err = sched.Run(ctx, schedsvc.PolicyInterface, e18Rounds); err != nil {
		return nil, err
	}
	if res.Carbon, err = sched.Run(ctx, schedsvc.PolicyCarbon, e18Rounds); err != nil {
		return nil, err
	}
	again, err := sched.Run(ctx, schedsvc.PolicyInterface, e18Rounds)
	if err != nil {
		return nil, err
	}
	res.Deterministic = again.PlacementHash == res.Interface.PlacementHash &&
		again.Energy == res.Interface.Energy &&
		again.UnmetCycles == res.Interface.UnmetCycles

	res.EnergySavings = 1 - float64(res.Interface.Energy)/float64(res.Utilization.Energy)
	res.CarbonCut = 1 - res.Carbon.CarbonGrams/res.Interface.CarbonGrams
	items := res.Interface.Fleet.Items + res.Carbon.Fleet.Items + again.Fleet.Items
	served := res.Interface.Fleet.CacheServed + res.Carbon.Fleet.CacheServed + again.Fleet.CacheServed
	if items > 0 {
		res.HitRate = float64(served) / float64(items)
	}
	return res, nil
}

// Table renders E18.
func (r *E18Result) Table() *Table {
	row := func(s schedsvc.Result) []string {
		return []string{
			s.Policy,
			fmt.Sprintf("%v", s.Energy),
			fmt.Sprintf("%.0f g", s.CarbonGrams),
			fmt.Sprintf("%.2f%%", 100*s.UnmetFraction()),
			cell(s.Unplaced),
			cell(s.Fleet.Items),
		}
	}
	t := &Table{
		ID: "E18",
		Title: fmt.Sprintf("Cluster scheduling as a fleet client: %d nodes, %d tasks, %d rounds",
			r.Nodes, r.Tasks, r.Rounds),
		Header: []string{"policy", "energy", "carbon", "unmet demand", "unplaced task-rounds", "fleet items"},
		Rows: [][]string{
			row(r.Utilization),
			row(r.Interface),
			row(r.Carbon),
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("interface-driven placement saves %.1f%% energy vs the utilization baseline at better QoS",
			100*r.EnergySavings),
		fmt.Sprintf("carbon-aware placement cuts emissions a further %.1f%% by following the intensity trace across regions",
			100*r.CarbonCut),
		fmt.Sprintf("all demand and cost queries served by a %d-daemon fleet router over the binary wire; %.1f%% of batch items cache-served",
			r.FleetNodes, 100*r.HitRate),
		fmt.Sprintf("repeat interface run bit-identical: %v (placement digest %016x)",
			r.Deterministic, r.Interface.PlacementHash))
	return t
}
