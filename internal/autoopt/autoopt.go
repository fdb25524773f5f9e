// Package autoopt is an ML.ENERGY-style auto-optimizer for served energy
// interfaces: given a knob space (batch size, DVFS level, replica count,
// model variant, …) and a p99 latency SLO, it sweeps every configuration,
// prunes dominated operating points, and fits the exact energy/latency
// Pareto frontier with deterministic tie-breaking — so an operator asks
// "cheapest operating point under p99 ≤ X ms" instead of issuing raw
// evals.
//
// The package is pure math plus an Evaluator seam with two spellings.
// FleetEvaluator is a fleet client: it buys each configuration's
// evaluations from a daemon or fleet router as /v1/evalbatch items, so a
// repeat sweep is memo-served wherever the fleet placed them. cmd/eic
// runs the same sweep offline against an in-process interface via
// CoreEvaluator.
//
// Determinism contract: the grid enumerates knobs in declaration order
// (last knob fastest), the frontier sorts by (latency asc, energy asc,
// knob vector lex), exact-duplicate (energy, latency) pairs collapse to
// the lexicographically smallest knob vector, and Digest folds the
// frontier through FNV-1a over exact Float64bits — two sweeps that saw
// bit-identical samples produce bit-identical digests at any evaluation
// parallelism.
package autoopt

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// DefaultMaxConfigs caps the knob-space cross product a single sweep may
// enumerate unless the caller raises it.
const DefaultMaxConfigs = 4096

// Knob is one named serving knob with its discrete candidate values, in
// the order they are passed as an argument to the swept methods.
type Knob struct {
	Name   string
	Values []float64
}

// Space is an ordered knob list. Order is semantic twice over: knob i
// supplies argument i of the swept methods, and the grid enumerates the
// last knob fastest.
type Space []Knob

// Validate rejects spaces the sweep cannot treat deterministically:
// empty or duplicate knob names, empty value lists, duplicate or
// non-finite values. An empty Space is valid — its grid is the single
// zero-knob configuration (the neutral product).
func (s Space) Validate() error {
	seen := map[string]bool{}
	for _, k := range s {
		if k.Name == "" {
			return fmt.Errorf("autoopt: knob with empty name")
		}
		if seen[k.Name] {
			return fmt.Errorf("autoopt: duplicate knob %q", k.Name)
		}
		seen[k.Name] = true
		if len(k.Values) == 0 {
			return fmt.Errorf("autoopt: knob %q has no values", k.Name)
		}
		vals := map[float64]bool{}
		for _, v := range k.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("autoopt: knob %q has non-finite value %v", k.Name, v)
			}
			if vals[v] {
				return fmt.Errorf("autoopt: knob %q repeats value %v", k.Name, v)
			}
			vals[v] = true
		}
	}
	return nil
}

// Size returns the cross-product cardinality of the space.
func (s Space) Size() int {
	n := 1
	for _, k := range s {
		n *= len(k.Values)
	}
	return n
}

// Grid enumerates every configuration of the space in canonical order
// (first knob slowest, last fastest), failing if the cross product
// exceeds limit (0 means DefaultMaxConfigs). Each configuration is a
// value vector aligned with the space's knob order.
func (s Space) Grid(limit int) ([][]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if limit <= 0 {
		limit = DefaultMaxConfigs
	}
	n := s.Size()
	if n > limit {
		return nil, fmt.Errorf("autoopt: knob space has %d configurations, cap is %d", n, limit)
	}
	grid := make([][]float64, 0, n)
	idx := make([]int, len(s))
	for {
		cfg := make([]float64, len(s))
		for i, k := range s {
			cfg[i] = k.Values[idx[i]]
		}
		grid = append(grid, cfg)
		i := len(s) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return grid, nil
}

// Sample is one configuration's measured objectives: the energy
// distribution's mean (joules per request) and the latency
// distribution's exact p99 (milliseconds per request — the abstract-unit
// convention, ms riding the Joules channel). Evals/MemoServed account
// the evaluations the sample cost and how many of them a cache answered.
type Sample struct {
	EnergyJ    float64
	LatencyMs  float64
	Evals      int
	MemoServed int
}

// Evaluator resolves every grid configuration to a Sample, in grid
// order. Implementations may evaluate concurrently but must return
// bit-identical samples for identical inputs — the engine's determinism
// guarantee makes that free for eval-backed evaluators.
type Evaluator func(ctx context.Context, space Space, grid [][]float64) ([]Sample, error)

// Point is one operating point: a knob value vector (space order) and
// its two objectives.
type Point struct {
	Knobs     []float64
	EnergyJ   float64
	LatencyMs float64
}

// Spec is one sweep's inputs.
type Spec struct {
	Space Space
	// SLOMs is the p99 latency ceiling Recommend selects under.
	SLOMs float64
	// MaxConfigs caps Grid (0 = DefaultMaxConfigs).
	MaxConfigs int
}

// Result is one sweep's outcome.
type Result struct {
	Space      Space
	Configs    int // grid size
	Evaluated  int // configurations with finite objectives
	Skipped    int // configurations dropped for non-finite objectives
	Evals      int // evaluations issued (sum of Sample.Evals)
	MemoServed int
	// Frontier is the exact Pareto frontier, latency ascending with
	// strictly decreasing energy.
	Frontier []Point
	// Digest is the FNV-1a fold of the frontier (knobs and objectives at
	// exact Float64bits), the bit-determinism handle.
	Digest uint64
	SLOMs  float64
	// Recommended is the cheapest point with p99 ≤ SLOMs (nil if the SLO
	// is unmeetable); MaxPerf is the naive max-performance choice — the
	// minimum-latency point — the baseline Savings compares against.
	Recommended *Point
	MaxPerf     *Point
	// SavingsFrac is 1 - Recommended.EnergyJ/MaxPerf.EnergyJ when both
	// exist (0 otherwise): the fraction of energy the SLO-aware choice
	// saves over always running flat out.
	SavingsFrac float64
}

// Sweep enumerates spec's grid, resolves it through eval, and fits the
// frontier. Configurations whose objectives come back NaN or ±Inf are
// skipped deterministically (an unmeasurable point cannot sit on an
// exact frontier); everything else is pure.
func Sweep(ctx context.Context, spec Spec, eval Evaluator) (*Result, error) {
	grid, err := spec.Space.Grid(spec.MaxConfigs)
	if err != nil {
		return nil, err
	}
	samples, err := eval(ctx, spec.Space, grid)
	if err != nil {
		return nil, err
	}
	if len(samples) != len(grid) {
		return nil, fmt.Errorf("autoopt: evaluator returned %d samples for %d configurations", len(samples), len(grid))
	}
	res := &Result{Space: spec.Space, Configs: len(grid), SLOMs: spec.SLOMs}
	points := make([]Point, 0, len(grid))
	for i, s := range samples {
		res.Evals += s.Evals
		res.MemoServed += s.MemoServed
		if !finite(s.EnergyJ) || !finite(s.LatencyMs) {
			res.Skipped++
			continue
		}
		points = append(points, Point{Knobs: grid[i], EnergyJ: s.EnergyJ, LatencyMs: s.LatencyMs})
	}
	res.Evaluated = len(points)
	res.Frontier = ParetoFrontier(points)
	res.Digest = Digest(spec.Space, res.Frontier)
	if len(res.Frontier) > 0 {
		mp := res.Frontier[0]
		res.MaxPerf = &mp
		if r := Recommend(res.Frontier, spec.SLOMs); r != nil {
			rr := *r
			res.Recommended = &rr
			if mp.EnergyJ > 0 {
				res.SavingsFrac = 1 - rr.EnergyJ/mp.EnergyJ
			}
		}
	}
	return res, nil
}

// ParetoFrontier returns the non-dominated subset of points, sorted by
// (latency asc, energy asc, knob vector lex). A point is dominated when
// another is ≤ in both objectives and < in at least one; exact
// (energy, latency) duplicates collapse to the lexicographically
// smallest knob vector. The input is not modified.
func ParetoFrontier(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	sorted := make([]Point, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].LatencyMs != sorted[j].LatencyMs {
			return sorted[i].LatencyMs < sorted[j].LatencyMs
		}
		if sorted[i].EnergyJ != sorted[j].EnergyJ {
			return sorted[i].EnergyJ < sorted[j].EnergyJ
		}
		return lexLess(sorted[i].Knobs, sorted[j].Knobs)
	})
	var out []Point
	for _, p := range sorted {
		// After the sort, a point joins the frontier iff it is strictly
		// cheaper than everything already kept (ties in both objectives
		// were sorted behind their lex-smallest representative).
		if len(out) == 0 || p.EnergyJ < out[len(out)-1].EnergyJ {
			out = append(out, p)
		}
	}
	return out
}

// Recommend returns the cheapest frontier point whose p99 latency meets
// the SLO, nil when none does. Because frontier energy strictly
// decreases as latency grows, that is the last frontier point within the
// ceiling — a deterministic pick.
func Recommend(frontier []Point, sloMs float64) *Point {
	var best *Point
	for i := range frontier {
		if frontier[i].LatencyMs <= sloMs {
			best = &frontier[i]
		}
	}
	return best
}

// Digest folds a frontier through FNV-1a: knob names, then each point's
// knob values and objectives at exact Float64bits, little-endian. Equal
// digests mean bit-identical frontiers over the same space.
func Digest(space Space, frontier []Point) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range space {
		h.Write([]byte(k.Name))
		h.Write([]byte{0})
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(frontier)))
	h.Write(buf[:])
	for _, p := range frontier {
		for _, v := range p.Knobs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.EnergyJ))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.LatencyMs))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func lexLess(a, b []float64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
