// Package schedsvc is an energy-aware cluster scheduler that runs as a
// *client of the fleet*: it never computes a demand estimate or a
// placement cost itself. Per-task demand comes from task energy
// interfaces and per-(node, DVFS-level) cost from node energy interfaces,
// both registered fleet-wide as EIL source and queried over the wire
// (binary codec, /v1/evalbatch) through the consistent-hashing router —
// the paper's §1 scheduling vignettes turned into load on the PR 7/8
// production serving path.
//
// The scheduler scales to thousands of nodes and ~10^6 tasks per round
// because everything it asks the fleet is *canonical*:
//
//   - tasks are grouped into (class, phase) cohorts whose members are
//     interchangeable, so one demand query prices an entire cohort, and
//     the query's argument is the phase index reduced mod the class
//     period — across rounds the working set is classes × period keys,
//     which the fleet memo then serves without re-evaluation;
//   - candidate placements are priced per (node class, DVFS level,
//     demand bucket) with demands quantized to two significant digits,
//     so a whole scheduling round compiles into one deduplicated batch.
//
// Three policies share the same simulator and capacity ledger:
//
//   - PolicyUtilization is the status quo: an EWMA utilization proxy with
//     misfit escalation, packing onto the biggest boxes at their highest
//     operating point — no interface queries at all;
//   - PolicyInterface resolves declared demand and per-level energy from
//     the fleet and picks the cheapest feasible operating points;
//   - PolicyCarbon additionally reweights each node class's cost by its
//     grid region's time-varying carbon intensity, so placement shifts
//     between regions as the grid gets dirtier (per the LLM-inference
//     carbon simulation line of work).
//
// Everything is deterministic: cohorts, candidates, and ties are visited
// in sorted order, and Result.PlacementHash digests every placement
// decision so bit-identical repeat runs are checkable end to end.
package schedsvc

import (
	"context"
	"fmt"
	"sort"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/sched"
)

// OperatingPoint is one DVFS level of a node class: sustained throughput
// and the power drawn while executing at that level.
type OperatingPoint struct {
	CyclesPerSec float64
	ActiveW      energy.Watts
}

// NodeClass describes one homogeneous pool of cluster machines: its
// capacity ladder, idle power, pool size, and the grid region whose
// carbon intensity its sockets see.
type NodeClass struct {
	Name   string
	Region string
	Count  int
	IdleW  energy.Watts
	// Levels are the DVFS operating points, ascending by CyclesPerSec.
	Levels []OperatingPoint
}

// EnergyPerCycle returns the marginal joules per executed cycle at level
// l — the quantity an energy-aware placement minimizes. (Idle power is
// burned by the fixed pool regardless of placement, so the marginal cost
// of work is active-minus-idle power over throughput.)
func (nc NodeClass) EnergyPerCycle(l int) float64 {
	return float64(nc.Levels[l].ActiveW-nc.IdleW) / nc.Levels[l].CyclesPerSec
}

// TaskClass is a periodic per-task demand shape, in cycles per scheduling
// round: PeakLen rounds at PeakCycles followed by TroughLen rounds at
// TroughCycles. This is the program structure a task's energy interface
// can state exactly (the §1 transcoding argument), so the registered
// task_<name> interface answers demand_cycles(p) for any phase index p.
type TaskClass struct {
	Name         string
	PeakCycles   float64
	TroughCycles float64
	PeakLen      int
	TroughLen    int
	// RequestCycles is the static per-round resource request today's
	// placers see (the Kubernetes request): what PolicyUtilization
	// allocates before its usage signal escalates. Typically set between
	// trough and peak — the whole §1 problem is that one number cannot be
	// right for both.
	RequestCycles float64
}

// Period returns the demand cycle length in rounds.
func (tc TaskClass) Period() int { return tc.PeakLen + tc.TroughLen }

// TaskGroup is a cohort of N identical tasks: instances of one class,
// phase-shifted by Phase rounds. Cohorts are the unit of scheduling —
// members are interchangeable, so demand is resolved once per cohort and
// placement assigns node capacity to the cohort in bulk.
type TaskGroup struct {
	Class string
	Phase int
	N     int
}

// roundSeconds is the scheduling round length. It is folded into the
// generated node interfaces (joules per round = watts × roundSeconds).
const roundSeconds = 1.0

// Config describes the cluster and workload a Scheduler manages.
type Config struct {
	Nodes  []NodeClass
	Tasks  []TaskClass
	Groups []TaskGroup
	// Margin over-provisions declared demand (ECV-style headroom), e.g.
	// 0.05 for 5%.
	Margin float64
	// Carbon is the per-region grid intensity signal; required by
	// PolicyCarbon, ignored by the others.
	Carbon CarbonTrace
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 || len(c.Tasks) == 0 || len(c.Groups) == 0 {
		return fmt.Errorf("schedsvc: config needs node classes, task classes, and groups")
	}
	classes := map[string]TaskClass{}
	mangledTasks := map[string]bool{}
	for _, tc := range c.Tasks {
		if tc.Name == "" || tc.PeakLen <= 0 || tc.TroughLen <= 0 ||
			tc.PeakCycles < 0 || tc.TroughCycles < 0 {
			return fmt.Errorf("schedsvc: malformed task class %q", tc.Name)
		}
		// Dedup on the mangled name: it is the registered interface
		// identity, so "k-v" and "k_v" cannot coexist.
		if mangledTasks[identName(tc.Name)] {
			return fmt.Errorf("schedsvc: duplicate task class %q", tc.Name)
		}
		mangledTasks[identName(tc.Name)] = true
		classes[tc.Name] = tc
	}
	nodeNames := map[string]bool{}
	for _, nc := range c.Nodes {
		if nc.Name == "" || nc.Count < 1 || len(nc.Levels) == 0 {
			return fmt.Errorf("schedsvc: malformed node class %q", nc.Name)
		}
		if nodeNames[identName(nc.Name)] {
			return fmt.Errorf("schedsvc: duplicate node class %q", nc.Name)
		}
		nodeNames[identName(nc.Name)] = true
		for l, op := range nc.Levels {
			if op.CyclesPerSec <= 0 || op.ActiveW <= nc.IdleW {
				return fmt.Errorf("schedsvc: node class %q level %d malformed", nc.Name, l)
			}
			if l > 0 && op.CyclesPerSec <= nc.Levels[l-1].CyclesPerSec {
				return fmt.Errorf("schedsvc: node class %q levels not ascending", nc.Name)
			}
		}
	}
	for _, g := range c.Groups {
		tc, ok := classes[g.Class]
		if !ok {
			return fmt.Errorf("schedsvc: group references unknown task class %q", g.Class)
		}
		if g.N < 1 || g.Phase < 0 || g.Phase >= tc.Period() {
			return fmt.Errorf("schedsvc: malformed group %s/%d", g.Class, g.Phase)
		}
	}
	return nil
}

// TotalTasks returns the workload size (tasks placed per round).
func (c Config) TotalTasks() int {
	n := 0
	for _, g := range c.Groups {
		n += g.N
	}
	return n
}

// TotalNodes returns the cluster size.
func (c Config) TotalNodes() int {
	n := 0
	for _, nc := range c.Nodes {
		n += nc.Count
	}
	return n
}

// Policy selects how a scheduling round estimates demand and ranks
// candidate placements.
type Policy int

// The three placement policies.
const (
	// PolicyUtilization is the request/utilization status quo: EWMA of
	// observed usage with misfit escalation, biggest-box-first packing at
	// the top operating point, no fleet queries.
	PolicyUtilization Policy = iota
	// PolicyInterface resolves demand and cost through the fleet's energy
	// interfaces and fills the cheapest feasible operating points first.
	PolicyInterface
	// PolicyCarbon is PolicyInterface with per-region grid-intensity
	// weighting: it minimizes grams, not joules.
	PolicyCarbon
)

// String names the policy as it appears in tables.
func (p Policy) String() string {
	switch p {
	case PolicyUtilization:
		return "utilization-based"
	case PolicyInterface:
		return "interface-driven"
	case PolicyCarbon:
		return "carbon-aware"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// UsesFleet reports whether the policy resolves demand and cost through
// the fleet (false only for the status-quo baseline).
func (p Policy) UsesFleet() bool { return p != PolicyUtilization }

// FleetStats aggregates what the scheduler's queries cost the fleet.
type FleetStats struct {
	Batches     int // evalbatch calls (a round trip per 1,024 items)
	Items       int // items sent
	CacheServed int // items answered by memo, in-batch dedup, peer, or coalescing
	Errors      int // per-item failures (always fatal: surfaced as Run errors)
}

// Result summarizes one policy's multi-round scheduling run.
type Result struct {
	Policy string
	Rounds int
	// Placed counts task-placements (tasks × rounds that got capacity).
	Placed int64
	// Unplaced counts task-rounds that found no capacity anywhere.
	Unplaced int64
	// Energy is the cluster's total energy over the run (ground truth
	// from the simulator, idle floors included).
	Energy energy.Joules
	// CarbonGrams prices the same energy through each region's
	// time-varying intensity trace.
	CarbonGrams float64
	// UnmetCycles sums, over rounds, the cycles of demand still pending
	// at each round boundary (work late k rounds counts k times), and
	// DemandCycles the total demanded; their ratio is the QoS penalty.
	UnmetCycles  float64
	DemandCycles float64
	// PlacementHash digests every placement decision of the run;
	// bit-identical repeat runs must agree on it exactly.
	PlacementHash uint64
	// Fleet is the query-side cost of the run (zero for the baseline).
	Fleet FleetStats
}

// UnmetFraction returns backlog cycle-rounds per demanded cycle.
func (r Result) UnmetFraction() float64 {
	if r.DemandCycles == 0 {
		return 0
	}
	return r.UnmetCycles / r.DemandCycles
}

// Scheduler drives scheduling rounds against a fleet router.
type Scheduler struct {
	cfg     Config
	client  *eisvc.Client
	classes map[string]TaskClass
	// groups is cfg.Groups in canonical (class, phase) order.
	groups []TaskGroup
}

// New validates cfg and returns a scheduler that queries the fleet (or a
// single daemon) behind client. The client is used as configured —
// callers pick codec, retries, and timeouts.
func New(cfg Config, client *eisvc.Client) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{cfg: cfg, client: client, classes: map[string]TaskClass{}}
	for _, tc := range cfg.Tasks {
		s.classes[tc.Name] = tc
	}
	s.groups = append(s.groups, cfg.Groups...)
	sort.Slice(s.groups, func(i, j int) bool {
		if s.groups[i].Class != s.groups[j].Class {
			return s.groups[i].Class < s.groups[j].Class
		}
		return s.groups[i].Phase < s.groups[j].Phase
	})
	return s, nil
}

// Config returns the validated configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Client returns the fleet client the scheduler queries through.
func (s *Scheduler) Client() *eisvc.Client { return s.client }

// Register uploads the generated node and task energy interfaces to the
// fleet (one EIL source, registered through the router's mutation path,
// so the primary assigns versions and replicates). Call once per fleet;
// re-registering bumps versions and cold-starts the memo working set.
func (s *Scheduler) Register(ctx context.Context) error {
	if _, err := s.client.RegisterCtx(ctx, SourceEIL(s.cfg)); err != nil {
		return fmt.Errorf("schedsvc: register interfaces: %w", err)
	}
	return nil
}

// DemandRequests returns the canonical demand-query batch for round q:
// one demand_cycles(p) item per distinct (task class, phase index), in
// sorted order. This is exactly what a scheduling round sends first; it
// is exported so benchmarks and warmers can drive the wire path alone.
func (s *Scheduler) DemandRequests(q int) []eisvc.EvalRequest {
	type key struct {
		class string
		p     int
	}
	seen := map[key]bool{}
	var reqs []eisvc.EvalRequest
	for _, g := range s.groups {
		tc := s.classes[g.Class]
		k := key{g.Class, (q + g.Phase) % tc.Period()}
		if seen[k] {
			continue
		}
		seen[k] = true
		reqs = append(reqs, eisvc.EvalRequest{
			Interface: TaskInterfaceName(k.class),
			Method:    "demand_cycles",
			Args:      eisvc.Args{core.Int(k.p)},
			Mode:      "expected",
		})
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Interface != reqs[j].Interface {
			return reqs[i].Interface < reqs[j].Interface
		}
		return argNum(&reqs[i], 0) < argNum(&reqs[j], 0)
	})
	return reqs
}

// evalBatch prices requests in one batch call and returns the means, in
// request order. Any per-item failure is fatal: a scheduler that cannot
// price a placement must say so, not place blind (the sched.Plan lesson).
func (s *Scheduler) evalBatch(ctx context.Context, reqs []eisvc.EvalRequest, st *FleetStats) ([]float64, error) {
	items, err := s.client.EvalBatchCtx(ctx, reqs)
	if err != nil {
		return nil, fmt.Errorf("schedsvc: evalbatch: %w", err)
	}
	st.Batches++
	st.Items += len(reqs)
	out := make([]float64, len(reqs))
	for i, it := range items {
		if it.Status != 200 || it.Dist == nil {
			st.Errors++
			return nil, fmt.Errorf("schedsvc: %s.%s: status %d: %s",
				reqs[i].Interface, reqs[i].Method, it.Status, it.Error)
		}
		if it.Cached || it.Deduped || it.Coalesced || it.Peer {
			st.CacheServed++
		}
		out[i] = it.Dist.Mean
	}
	return out, nil
}

// fetchDemands resolves each cohort's declared per-task demand for round
// q from the fleet, margin applied. Returned in s.groups order.
func (s *Scheduler) fetchDemands(ctx context.Context, q int, st *FleetStats) ([]float64, error) {
	reqs := s.DemandRequests(q)
	means, err := s.evalBatch(ctx, reqs, st)
	if err != nil {
		return nil, err
	}
	byKey := map[string]float64{}
	for i, r := range reqs {
		byKey[r.Interface+"/"+fmt.Sprint(argNum(&reqs[i], 0))] = means[i]
	}
	out := make([]float64, len(s.groups))
	for i, g := range s.groups {
		tc := s.classes[g.Class]
		p := (q + g.Phase) % tc.Period()
		d, ok := byKey[TaskInterfaceName(g.Class)+"/"+fmt.Sprint(float64(p))]
		if !ok {
			return nil, fmt.Errorf("schedsvc: demand for %s phase %d missing from batch", g.Class, p)
		}
		out[i] = d * (1 + s.cfg.Margin)
	}
	return out, nil
}

// argNum reads numeric argument i of a request this package built.
func argNum(r *eisvc.EvalRequest, i int) float64 {
	n, _ := r.Args[i].AsNum()
	return n
}

// CostRequests returns the canonical candidate-pricing batch: for every
// (node class, DVFS level), the cost of a fully-busy round at that level
// and the class's idle round, in sorted order. The arguments never vary
// across rounds, so after the first round the fleet memo serves the
// whole batch without re-evaluating anything.
func (s *Scheduler) CostRequests() []eisvc.EvalRequest {
	var reqs []eisvc.EvalRequest
	for _, nc := range s.cfg.Nodes {
		name := NodeInterfaceName(nc.Name)
		reqs = append(reqs, eisvc.EvalRequest{
			Interface: name, Method: "idle", Mode: "expected",
		})
		for _, l := range sched.LevelIndices(len(nc.Levels)) {
			reqs = append(reqs, eisvc.EvalRequest{
				Interface: name,
				Method:    "cost",
				Args:      eisvc.Args{core.Num(nc.Levels[l].CyclesPerSec * roundSeconds), core.Int(l)},
				Mode:      "expected",
			})
		}
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Interface != reqs[j].Interface {
			return reqs[i].Interface < reqs[j].Interface
		}
		if reqs[i].Method != reqs[j].Method {
			return reqs[i].Method < reqs[j].Method
		}
		return argNum(&reqs[i], 1) < argNum(&reqs[j], 1)
	})
	return reqs
}

// unitCosts holds the fleet's answers to CostRequests, reduced to the
// quantity placement ranks by: marginal joules per cycle at each
// (class, level), plus each class's idle-round joules.
type unitCosts struct {
	perCycle map[string][]float64 // class → per-level marginal J/cycle
	idle     map[string]float64   // class → idle J per node-round
}

// fetchCosts resolves candidate pricing from the fleet.
func (s *Scheduler) fetchCosts(ctx context.Context, st *FleetStats) (unitCosts, error) {
	reqs := s.CostRequests()
	means, err := s.evalBatch(ctx, reqs, st)
	if err != nil {
		return unitCosts{}, err
	}
	uc := unitCosts{perCycle: map[string][]float64{}, idle: map[string]float64{}}
	byIface := map[string]NodeClass{}
	for _, nc := range s.cfg.Nodes {
		byIface[NodeInterfaceName(nc.Name)] = nc
		uc.perCycle[nc.Name] = make([]float64, len(nc.Levels))
	}
	for i, r := range reqs {
		nc := byIface[r.Interface]
		if r.Method == "idle" {
			uc.idle[nc.Name] = means[i]
		}
	}
	for i, r := range reqs {
		if r.Method != "cost" {
			continue
		}
		nc := byIface[r.Interface]
		l := int(argNum(&reqs[i], 1))
		cap := nc.Levels[l].CyclesPerSec * roundSeconds
		// Busy-round joules minus the idle floor, per executed cycle.
		uc.perCycle[nc.Name][l] = (means[i] - uc.idle[nc.Name]) / cap
	}
	return uc, nil
}
