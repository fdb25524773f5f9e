package schedsvc

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"energyclarity/internal/energy"
	"energyclarity/internal/sched"
)

// This file is the scheduling round loop: estimate demand, rank
// candidate (node class, DVFS level) placements, fill a capacity ledger
// greedily, then advance the ground-truth simulator. The fluid cluster
// model keeps per-round work proportional to cohorts × candidates — a
// few hundred operations — so a million tasks over thousands of nodes
// schedules in the time it takes the fleet to answer one canonical
// batch.

// candidate is one (node class, DVFS level) placement option with its
// ranking score (marginal J/cycle, carbon-weighted for PolicyCarbon).
type candidate struct {
	class string
	level int
	score float64
}

// alloc records cycles a cohort placed onto one candidate in one round.
type alloc struct {
	class  string
	level  int
	cycles float64
}

// runState carries mutable per-run scheduling state.
type runState struct {
	backlog []float64 // per cohort (s.groups order), cycles owed
	est     []float64 // per cohort, PolicyUtilization's EWMA usage estimate
	hash    *placementHash
}

// placementHash digests every placement decision; identical runs must
// produce identical digests (the determinism acceptance criterion).
type placementHash struct{ h hash.Hash64 }

func newPlacementHash() *placementHash { return &placementHash{h: fnv.New64a()} }

func (p *placementHash) add(round, cohort int, a alloc) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(round))
	p.h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(cohort))
	p.h.Write(buf[:])
	p.h.Write([]byte(a.class))
	binary.LittleEndian.PutUint64(buf[:], uint64(a.level))
	p.h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a.cycles))
	p.h.Write(buf[:])
}

func (p *placementHash) sum() uint64 { return p.h.Sum64() }

// trueDemand returns a cohort's ground-truth per-task demand in round q,
// straight from the task class shape (what the registered interface also
// declares — the declared model is honest here; Margin is the hedge for
// when it would not be).
func (s *Scheduler) trueDemand(g TaskGroup, q int) float64 {
	tc := s.classes[g.Class]
	if (q+g.Phase)%tc.Period() < tc.PeakLen {
		return tc.PeakCycles
	}
	return tc.TroughCycles
}

// utilizationEstimates is the no-interface baseline's demand model: the
// static request, escalated by an EWMA usage signal that doubles when a
// cohort saturates its allocation (the EAS-style misfit reaction). It
// converges only by chasing observed usage — which is precisely the lag
// the paper's §1 argues interfaces remove.
const utilizationAlpha = 0.3

func (st *runState) utilizationEstimate(i int, tc TaskClass) float64 {
	if st.est[i] > tc.RequestCycles {
		return st.est[i]
	}
	return tc.RequestCycles
}

func (st *runState) observeUtilization(i int, allocated, used float64) {
	if used >= allocated && allocated > 0 {
		// Saturated: usage tells us nothing about true demand except
		// "more" — escalate multiplicatively from the allocation.
		if d := allocated * 2; d > st.est[i] {
			st.est[i] = d
		}
		return
	}
	st.est[i] = (1-utilizationAlpha)*st.est[i] + utilizationAlpha*used
}

// rankCandidates orders every (class, level) by marginal cost per cycle
// ascending — joules for PolicyInterface, intensity-weighted grams for
// PolicyCarbon — with (class, level) as the deterministic tie-break. The
// baseline ignores cost entirely: biggest boxes first, top level only.
func (s *Scheduler) rankCandidates(policy Policy, uc unitCosts, q int) ([]candidate, error) {
	var cands []candidate
	for _, nc := range s.cfg.Nodes {
		if policy == PolicyUtilization {
			top := len(nc.Levels) - 1
			cands = append(cands, candidate{
				class: nc.Name, level: top,
				// Rank by raw throughput, biggest first.
				score: -nc.Levels[top].CyclesPerSec,
			})
			continue
		}
		for _, l := range sched.LevelIndices(len(nc.Levels)) {
			score := uc.perCycle[nc.Name][l]
			if policy == PolicyCarbon {
				intensity, err := s.cfg.Carbon.Intensity(nc.Region, q)
				if err != nil {
					return nil, err
				}
				score = CarbonGrams(1, intensity) * score // grams per cycle
			}
			cands = append(cands, candidate{class: nc.Name, level: l, score: score})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		if cands[i].class != cands[j].class {
			return cands[i].class < cands[j].class
		}
		return cands[i].level < cands[j].level
	})
	return cands, nil
}

// placeRound fills the capacity ledger: cohorts in canonical order, each
// taking capacity from the cheapest candidates that still have nodes.
// Returns per-cohort allocations. Nodes are fluid (fractional) — a
// cohort of 300k tasks takes 412.7 nodes' worth of a level, and the
// 0.7 node's idle remainder is accounted by the simulator.
func (s *Scheduler) placeRound(round int, demands []float64, cands []candidate, st *runState) [][]alloc {
	nodesLeft := map[string]float64{}
	for _, nc := range s.cfg.Nodes {
		nodesLeft[nc.Name] = float64(nc.Count)
	}
	capPerNode := map[string][]float64{}
	for _, nc := range s.cfg.Nodes {
		caps := make([]float64, len(nc.Levels))
		for l := range nc.Levels {
			caps[l] = nc.Levels[l].CyclesPerSec * roundSeconds
		}
		capPerNode[nc.Name] = caps
	}
	out := make([][]alloc, len(s.groups))
	for i := range s.groups {
		need := demands[i]
		for _, c := range cands {
			if need <= 0 {
				break
			}
			avail := nodesLeft[c.class] * capPerNode[c.class][c.level]
			if avail <= 0 {
				continue
			}
			take := need
			if take > avail {
				take = avail
			}
			nodesLeft[c.class] -= take / capPerNode[c.class][c.level]
			need -= take
			a := alloc{class: c.class, level: c.level, cycles: take}
			out[i] = append(out[i], a)
			st.hash.add(round, i, a)
		}
	}
	return out
}

// Run schedules rounds [0, rounds) under policy and returns the run's
// accounting. Fleet-backed policies issue one canonical evalbatch per
// round; the baseline issues none. Any fleet error aborts the run — a
// scheduler that cannot price a placement must not place blind.
func (s *Scheduler) Run(ctx context.Context, policy Policy, rounds int) (Result, error) {
	if rounds <= 0 {
		return Result{}, fmt.Errorf("schedsvc: rounds must be positive")
	}
	if policy == PolicyCarbon {
		for _, nc := range s.cfg.Nodes {
			if _, err := s.cfg.Carbon.Intensity(nc.Region, 0); err != nil {
				return Result{}, err
			}
		}
	}
	res := Result{Policy: policy.String(), Rounds: rounds}
	st := &runState{
		backlog: make([]float64, len(s.groups)),
		est:     make([]float64, len(s.groups)),
		hash:    newPlacementHash(),
	}
	var uc unitCosts
	for q := 0; q < rounds; q++ {
		// 1. Demand model: declared (fleet) or estimated (baseline).
		demands := make([]float64, len(s.groups)) // cohort totals
		trueTotals := make([]float64, len(s.groups))
		for i, g := range s.groups {
			trueTotals[i] = s.trueDemand(g, q) * float64(g.N)
		}
		if policy.UsesFleet() {
			perTask, err := s.fetchDemands(ctx, q, &res.Fleet)
			if err != nil {
				return Result{}, err
			}
			for i, g := range s.groups {
				demands[i] = perTask[i]*float64(g.N) + st.backlog[i]
			}
			uc2, err := s.fetchCosts(ctx, &res.Fleet)
			if err != nil {
				return Result{}, err
			}
			uc = uc2
		} else {
			for i, g := range s.groups {
				tc := s.classes[g.Class]
				demands[i] = st.utilizationEstimate(i, tc)*float64(g.N) + st.backlog[i]
			}
		}

		// 2. Rank candidates and fill the ledger.
		cands, err := s.rankCandidates(policy, uc, q)
		if err != nil {
			return Result{}, err
		}
		allocs := s.placeRound(q, demands, cands, st)

		// 3. Ground-truth simulation: execute, meter, roll backlog.
		// Executed cycles per (class, level), level-indexed slices so the
		// energy summation below runs in a fixed order (float addition
		// order is part of bit-identical determinism).
		execByCand := map[string][]float64{}
		for _, nc := range s.cfg.Nodes {
			execByCand[nc.Name] = make([]float64, len(nc.Levels))
		}
		for i, g := range s.groups {
			allocated := 0.0
			for _, a := range allocs[i] {
				allocated += a.cycles
			}
			owed := trueTotals[i] + st.backlog[i]
			executed := math.Min(allocated, owed)
			// Spread executed cycles over the cohort's allocations in
			// order (cheapest first, so overhang falls off the worst
			// candidate).
			rem := executed
			for _, a := range allocs[i] {
				run := math.Min(rem, a.cycles)
				if run > 0 {
					execByCand[a.class][a.level] += run
					rem -= run
				}
			}
			st.backlog[i] = owed - executed
			res.UnmetCycles += st.backlog[i]
			res.DemandCycles += trueTotals[i]
			// Task accounting: a task is placed when its share of the
			// round's obligation was fully executed.
			placedTasks := int64(float64(g.N) * safeDiv(executed, owed))
			res.Placed += placedTasks
			res.Unplaced += int64(g.N) - placedTasks
			if !policy.UsesFleet() {
				// The usage signal is per task — cohort totals would leak
				// the cohort size into the estimate's units.
				st.observeUtilization(i, allocated/float64(g.N), executed/float64(g.N))
			}
		}
		// Energy: idle floor for the whole fixed pool, plus marginal
		// active energy for executed cycles; carbon prices each class's
		// share at its region's intensity this round.
		for _, nc := range s.cfg.Nodes {
			e := float64(nc.IdleW) * roundSeconds * float64(nc.Count)
			for l, cycles := range execByCand[nc.Name] {
				e += cycles * nc.EnergyPerCycle(l)
			}
			res.Energy += energy.Joules(e)
			if len(s.cfg.Carbon) > 0 {
				if intensity, err := s.cfg.Carbon.Intensity(nc.Region, q); err == nil {
					res.CarbonGrams += CarbonGrams(energy.Joules(e), intensity)
				}
			}
		}
	}
	res.PlacementHash = st.hash.sum()
	return res, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}
