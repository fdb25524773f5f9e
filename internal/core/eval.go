package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"energyclarity/internal/energy"
)

// Mode selects how ECV randomness is resolved during evaluation.
type Mode int

const (
	// ModeExpected computes the full distribution over all ECV assignments
	// by exact enumeration, falling back to Monte Carlo sampling when the
	// joint assignment space exceeds EvalOptions.EnumLimit.
	ModeExpected Mode = iota
	// ModeWorstCase returns a point distribution at the maximum energy over
	// all ECV assignments — the §4.1 upper-bound semantics.
	ModeWorstCase
	// ModeBestCase returns a point distribution at the minimum energy.
	ModeBestCase
	// ModeFixed evaluates under the caller-provided ECV assignment only;
	// every transitive ECV must be assigned (via EvalOptions.Fixed).
	ModeFixed
	// ModeMonteCarlo samples EvalOptions.Samples assignments.
	ModeMonteCarlo
)

func (m Mode) String() string {
	switch m {
	case ModeExpected:
		return "expected"
	case ModeWorstCase:
		return "worst-case"
	case ModeBestCase:
		return "best-case"
	case ModeFixed:
		return "fixed"
	case ModeMonteCarlo:
		return "monte-carlo"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Modes lists every evaluation mode, in declaration order.
var Modes = []Mode{ModeExpected, ModeWorstCase, ModeBestCase, ModeFixed, ModeMonteCarlo}

// ParseMode is the inverse of Mode.String: it maps a mode name to its Mode.
// It accepts exactly the spellings String emits, plus the short aliases
// "worst", "best" and "montecarlo" for tooling convenience. Wire protocols
// (cmd/eid) and the CLI (cmd/eic) both route mode flags through here so
// they agree on spelling.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "expected":
		return ModeExpected, nil
	case "worst-case", "worst":
		return ModeWorstCase, nil
	case "best-case", "best":
		return ModeBestCase, nil
	case "fixed":
		return ModeFixed, nil
	case "monte-carlo", "montecarlo":
		return ModeMonteCarlo, nil
	}
	return 0, fmt.Errorf("core: unknown evaluation mode %q (want expected, worst-case, best-case, fixed, or monte-carlo)", s)
}

// Default evaluation limits.
const (
	DefaultEnumLimit = 4096
	DefaultSamples   = 2048
)

// EvalOptions configures Interface.Eval.
type EvalOptions struct {
	Mode Mode
	// Fixed pins ECVs (by qualified name, see QualifiedECV) to concrete
	// values. In ModeFixed all ECVs must be pinned; in other modes pinned
	// ECVs are excluded from enumeration/sampling.
	Fixed map[string]Value
	// EnumLimit caps the joint assignment space for exact enumeration
	// (default DefaultEnumLimit). Beyond it, ModeExpected, ModeWorstCase
	// and ModeBestCase fall back to Monte Carlo estimation.
	EnumLimit int
	// Samples is the Monte Carlo sample count (default DefaultSamples).
	Samples int
	// Seed seeds Monte Carlo sampling; evaluation is deterministic given
	// Seed.
	Seed int64
	// Parallelism is the number of worker goroutines evaluation may use:
	// 0 (the default) means one worker per available CPU
	// (runtime.GOMAXPROCS), 1 forces the sequential reference path. Monte
	// Carlo sampling uses fixed-size shards with per-shard deterministic
	// RNG streams and exact enumeration partitions the assignment index
	// range, so for a fixed Seed the resulting Dist is bit-identical at
	// every parallelism level.
	Parallelism int
	// Interpret forces the tree-walking interpreter even when a method
	// compiler is registered (see RegisterCompiler): the compiled-program
	// path is skipped entirely. Compiled and interpreted evaluation return
	// bit-identical distributions; the flag exists for differential
	// testing and for benchmarking the interpreter baseline.
	Interpret bool
	// Layer, when non-nil, attaches a compositional evaluation cache:
	// every interpreted method invocation during evaluation (the top-level
	// body under each ECV assignment, and every Call.E/Call.Self beneath
	// it) is memoized in it, keyed by subtree version, method, abstracted
	// args, and the ECV values reaching that subtree. Cached results are
	// the exact scalars the bodies returned, so the resulting Dist is
	// bit-identical with the cache warm, cold, or absent. The same
	// LayerCache may be shared by concurrent Evals over any interfaces;
	// sharing across Evals is all it buys, since one Eval runs each
	// assignment at most once (beyond EnumLimit, where Monte Carlo runs a
	// body per sample, repeated draws do hit it).
	//
	// A method the optimizing compiler accepts (see RegisterCompiler) runs
	// as one flat program with every sub-call inlined; such an evaluation
	// neither reads nor writes the layer — the compiled-program cache
	// supersedes it. The layer therefore serves the interpreter's half of
	// the world: Go-native and hybrid trees, methods the compiler
	// declines, and Interpret-forced runs. Results stay bit-identical
	// either way, so which cache answered is observable only in stats.
	Layer *LayerCache
}

// Expected returns options for ModeExpected.
func Expected() EvalOptions { return EvalOptions{Mode: ModeExpected} }

// WorstCase returns options for ModeWorstCase.
func WorstCase() EvalOptions { return EvalOptions{Mode: ModeWorstCase} }

// BestCase returns options for ModeBestCase.
func BestCase() EvalOptions { return EvalOptions{Mode: ModeBestCase} }

// FixedAssignment returns options for ModeFixed with the given assignment.
func FixedAssignment(assign map[string]Value) EvalOptions {
	return EvalOptions{Mode: ModeFixed, Fixed: assign}
}

// MonteCarlo returns options for ModeMonteCarlo.
func MonteCarlo(samples int, seed int64) EvalOptions {
	return EvalOptions{Mode: ModeMonteCarlo, Samples: samples, Seed: seed}
}

// evalPanic carries evaluation failures out of Body code; Eval recovers it.
type evalPanic struct{ err error }

// Fail aborts the current evaluation with err; Interface.Eval returns err.
// It is for Body implementations built outside this package (e.g. the EIL
// interpreter); it must only be called from within a Body.
func Fail(err error) {
	panic(evalPanic{err})
}

// Call is the evaluation context passed to a method Body: its arguments,
// the ECV assignment in effect, and access to bound lower-level interfaces.
// What a Body reads through its Call is all it may depend on (see Body).
type Call struct {
	iface  *Interface
	path   string // qualified binding path of iface within the root
	method *Method
	args   []Value
	assign map[string]Value // qualified ECV name -> value (complete)
	depth  int
	ev     *layerEval // layer-cache view; nil when no cache is attached
}

// maxCallDepth bounds composition depth to catch runaway recursion through
// bindings (bindings are acyclic by construction, but bodies could recurse
// into their own interface's methods).
const maxCallDepth = 256

func (c *Call) fail(format string, args ...interface{}) {
	panic(evalPanic{fmt.Errorf("core: %s.%s: %s", c.iface.name, c.method.Name,
		fmt.Sprintf(format, args...))})
}

// NArgs returns the number of arguments.
func (c *Call) NArgs() int { return len(c.args) }

// Arg returns the i-th argument; it fails the evaluation if out of range.
func (c *Call) Arg(i int) Value {
	if i < 0 || i >= len(c.args) {
		c.fail("argument %d out of range (have %d)", i, len(c.args))
	}
	return c.args[i]
}

// Num returns the i-th argument as a number.
func (c *Call) Num(i int) float64 {
	n, ok := c.Arg(i).AsNum()
	if !ok {
		c.fail("argument %d is %s, want num", i, c.Arg(i).Kind())
	}
	return n
}

// Bool returns the i-th argument as a bool.
func (c *Call) Bool(i int) bool {
	b, ok := c.Arg(i).AsBool()
	if !ok {
		c.fail("argument %d is %s, want bool", i, c.Arg(i).Kind())
	}
	return b
}

// Str returns the i-th argument as a string.
func (c *Call) Str(i int) string {
	s, ok := c.Arg(i).AsStr()
	if !ok {
		c.fail("argument %d is %s, want str", i, c.Arg(i).Kind())
	}
	return s
}

// FieldNum returns the named numeric field of the i-th (record) argument.
func (c *Call) FieldNum(i int, field string) float64 {
	f, ok := c.Arg(i).Field(field)
	if !ok {
		c.fail("argument %d has no field %q", i, field)
	}
	n, ok := f.AsNum()
	if !ok {
		c.fail("field %q is %s, want num", field, f.Kind())
	}
	return n
}

// ECV returns the value assigned to this interface's own ECV.
func (c *Call) ECV(name string) Value {
	qn := name
	if c.path != "" {
		qn = c.path + "." + name
	}
	v, ok := c.assign[qn]
	if !ok {
		c.fail("ECV %q not assigned", qn)
	}
	return v
}

// ECVBool returns a boolean ECV's assigned value.
func (c *Call) ECVBool(name string) bool {
	v := c.ECV(name)
	b, ok := v.AsBool()
	if !ok {
		c.fail("ECV %q is %s, want bool", name, v.Kind())
	}
	return b
}

// ECVNum returns a numeric ECV's assigned value.
func (c *Call) ECVNum(name string) float64 {
	v := c.ECV(name)
	n, ok := v.AsNum()
	if !ok {
		c.fail("ECV %q is %s, want num", name, v.Kind())
	}
	return n
}

// E invokes a method of the interface bound under localName and returns its
// energy under the current ECV assignment. This is the composition
// primitive: upper-layer interfaces "compute energy usage by calling into
// the energy interfaces of resources used by this resource" (§2).
func (c *Call) E(localName, method string, args ...Value) energy.Joules {
	lower, ok := c.iface.bindings[localName]
	if !ok {
		c.fail("no binding %q", localName)
	}
	m := lower.methods[method]
	if m == nil {
		c.fail("binding %q (interface %s) has no method %q", localName, lower.name, method)
	}
	sub := localName
	if c.path != "" {
		sub = c.path + "." + localName
	}
	return c.run(lower, sub, m, args)
}

// Self invokes another method of the same interface (e.g. a helper like
// Fig. 1's E_cnn_forward) under the same ECV assignment.
func (c *Call) Self(method string, args ...Value) energy.Joules {
	m := c.iface.methods[method]
	if m == nil {
		c.fail("interface %s has no method %q", c.iface.name, method)
	}
	return c.run(c.iface, c.path, m, args)
}

func (c *Call) run(iface *Interface, path string, m *Method, args []Value) energy.Joules {
	if c.depth+1 > maxCallDepth {
		c.fail("call depth exceeds %d (recursive interface?)", maxCallDepth)
	}
	if len(m.Params) != 0 && len(args) != len(m.Params) {
		c.fail("call to %s.%s: %d args, want %d", iface.name, m.Name, len(args), len(m.Params))
	}
	sub := &Call{
		iface:  iface,
		path:   path,
		method: m,
		args:   args,
		assign: c.assign,
		depth:  c.depth + 1,
		ev:     c.ev,
	}
	if c.ev == nil {
		return m.Body(sub)
	}
	// Layer-cache path: the descriptor for this binding path carries the
	// subtree version and the ECV names whose values the body can observe.
	d, ok := c.ev.descs[path]
	if !ok {
		return m.Body(sub)
	}
	key := d.key(m.Name, args, c.assign)
	if v, hit := c.ev.cache.get(key); hit {
		return energy.Joules(v)
	}
	j := m.Body(sub)
	c.ev.cache.put(key, float64(j))
	return j
}

// evalOnce runs one method evaluation under a complete assignment,
// converting Body panics to errors. With a layer cache attached (ev !=
// nil), the whole-tree result under this assignment is itself memoized, so
// the work is shared with every other Eval — any mode, seed or stack —
// whose assignments coincide. Within one Eval no assignment repeats:
// enumeration visits each once, and Monte Carlo over a space that fits
// EnumLimit runs each assignment it drew once, so the layer sees a handful
// of lookups per Eval there, not one per sample.
func (i *Interface) evalOnce(m *Method, args []Value, assign map[string]Value, ev *layerEval) (j energy.Joules, err error) {
	defer func() {
		if r := recover(); r != nil {
			ep, ok := r.(evalPanic)
			if !ok {
				panic(r) // not ours: propagate
			}
			err = ep.err
		}
	}()
	c := &Call{iface: i, path: "", method: m, args: args, assign: assign, ev: ev}
	if len(m.Params) != 0 && len(args) != len(m.Params) {
		return 0, fmt.Errorf("core: %s.%s: %d args, want %d", i.name, m.Name, len(args), len(m.Params))
	}
	if ev != nil {
		if d, ok := ev.descs[""]; ok {
			key := d.key(m.Name, args, assign)
			if v, hit := ev.cache.get(key); hit {
				return energy.Joules(v), nil
			}
			j := m.Body(c)
			ev.cache.put(key, float64(j))
			return j, nil
		}
	}
	return m.Body(c), nil
}

// Eval evaluates the named energy method on args and returns the resulting
// energy distribution according to opts. A resource manager "can execute
// the interface to know a priori the energy that the resource would consume
// if run with a particular workload" (§2) — Eval is that execution.
func (i *Interface) Eval(method string, args []Value, opts EvalOptions) (energy.Dist, error) {
	return i.EvalCtx(context.Background(), method, args, opts)
}

// EvalCtx is Eval bounded by a context: cancelling ctx stops the
// evaluation promptly — parallel Monte Carlo and enumeration workers poll
// between individual body runs, so an abandoned request releases its
// workers within one run's work, not after finishing its shard — and
// EvalCtx returns ctx.Err(). Cancellation never corrupts shared state: scratch
// buffers are returned and a shared LayerCache only ever holds fully
// computed sub-results, so a later identical Eval is bit-identical to one
// that was never cancelled.
func (i *Interface) EvalCtx(ctx context.Context, method string, args []Value, opts EvalOptions) (energy.Dist, error) {
	if err := ctx.Err(); err != nil {
		return energy.Dist{}, err
	}
	m := i.methods[method]
	if m == nil {
		return energy.Dist{}, fmt.Errorf("core: interface %s has no method %q", i.name, method)
	}
	if opts.EnumLimit <= 0 {
		opts.EnumLimit = DefaultEnumLimit
	}
	if opts.Samples <= 0 {
		opts.Samples = DefaultSamples
	}

	// The tree version keys both the compiled program and the ECV plan; an
	// Eval that pins ECVs splits the plan for itself.
	fold := i.subtreeFold()
	plan, base, err := i.planFor(fold).pin(i.name, opts.Fixed)
	if err != nil {
		return energy.Dist{}, err
	}

	// Compiled-program path: compile (or fetch from the fold-keyed cache)
	// and specialize for this Eval's args and pinned ECVs. A nil spec means
	// interpreter fallback; both paths produce bit-identical Dists, so the
	// choice is invisible to callers.
	spec := i.specializeFor(method, fold, opts, args, base, plan.ecvs)
	if spec != nil {
		defer spec.Release()
	}
	// Only the interpreter reads the layer cache, so only it pays for the
	// descriptor table (a walk of the whole tree).
	var ev *layerEval
	if spec == nil && opts.Layer != nil {
		ev = opts.Layer.evalContext(i)
	}

	if opts.Mode == ModeFixed {
		if len(plan.ecvs) > 0 {
			return energy.Dist{}, fmt.Errorf("core: interface %s: ModeFixed but ECV %q unassigned",
				i.name, plan.names[0])
		}
		if spec != nil {
			v, err := spec.Run(nil)
			if err != nil {
				return energy.Dist{}, err
			}
			return energy.Point(v), nil
		}
		j, err := i.evalOnce(m, args, base, ev)
		if err != nil {
			return energy.Dist{}, err
		}
		return energy.Point(float64(j)), nil
	}

	// Joint assignment space size for the free ECVs (every support point of
	// every Dist, zero-probability ones included).
	space := 1
	exceeded := false
	for _, q := range plan.ecvs {
		space *= len(q.ECV.Dist)
		if space > opts.EnumLimit {
			exceeded = true
			break
		}
	}

	switch {
	case exceeded:
		return i.evalMonteCarlo(ctx, m, args, base, plan, opts, ev, spec)
	case opts.Mode == ModeMonteCarlo:
		return i.evalMonteCarloDistinct(ctx, m, args, base, plan, opts, ev, spec)
	default:
		return i.evalEnumerate(ctx, m, args, base, plan, opts, ev, spec)
	}
}

// ecvPlan is what evaluation needs to know of a tree's ECVs. It depends on
// the tree alone, so it is built once per tree version — the subtree fold
// compiled programs are keyed by — and shared by every Eval of that version.
type ecvPlan struct {
	fold  uint64
	ecvs  []QualifiedECV // the free ECVs, in TransitiveECVs order
	names []string       // their qualified names
	// enum and draw lay every free ECV out as a dimension, strides set —
	// the space the interpreter observes: enumeration drops
	// zero-probability points, sampling scans them all.
	enum, draw layout
	// layouts holds compiled specializations' observed spaces (see
	// observed); nil for a split plan, whose pinned set is one request's.
	mu      sync.Mutex
	layouts map[layoutKey]*layout
}

// layout is one observed assignment space: the free ECVs a body run can
// tell apart, laid out row-major as a space of their own.
type layout struct {
	obs     []freeDim // the observed dimensions, strides within this space
	size    int       // points in the space
	strides []int     // per free ECV: its stride here, 0 when unobserved
	vals    [][]Value // obs[j]'s support values, what FillTable takes
}

// fullLayout lays out all of dims, which it takes over.
func fullLayout(dims []freeDim) layout {
	l := layout{obs: dims, size: setStrides(dims), strides: make([]int, len(dims))}
	for k, d := range dims {
		l.strides[k] = d.stride
	}
	return l
}

// newLayout lays out the dimensions of dims that a compiled program's deps
// names, with the value vectors its FillTable takes.
func newLayout(dims []freeDim, deps []int) *layout {
	l := &layout{obs: make([]freeDim, len(deps)), strides: make([]int, len(dims)), vals: make([][]Value, len(deps))}
	points := 0
	for j, k := range deps {
		l.obs[j] = dims[k]
		points += len(dims[k].ws)
	}
	l.size = setStrides(l.obs)
	flat := make([]Value, 0, points)
	for j, d := range l.obs {
		l.strides[d.k] = d.stride
		for _, w := range d.ws {
			flat = append(flat, w.V)
		}
		l.vals[j] = flat[len(flat)-len(d.ws):]
	}
	return l
}

func newPlan(ecvs []QualifiedECV, names []string) *ecvPlan {
	enum := make([]freeDim, len(ecvs))
	draw := make([]freeDim, len(ecvs))
	for k, q := range ecvs {
		draw[k] = freeDim{k: k, qn: names[k], ws: q.ECV.Dist}
		enum[k] = draw[k]
		if slices.ContainsFunc(q.ECV.Dist, func(w Weighted) bool { return w.P == 0 }) {
			enum[k].ws = slices.DeleteFunc(slices.Clone(q.ECV.Dist), func(w Weighted) bool { return w.P == 0 })
		}
	}
	return &ecvPlan{ecvs: ecvs, names: names, enum: fullLayout(enum), draw: fullLayout(draw)}
}

// planFor returns the plan of the tree version fold names, building it the
// first time an Eval asks. Evals racing on a new version may each build
// one; they are equal, and the last stored stays.
func (i *Interface) planFor(fold uint64) *ecvPlan {
	if p := i.plan.Load(); p != nil && p.fold == fold {
		return p
	}
	ecvs := i.TransitiveECVs()
	names := make([]string, len(ecvs))
	for k, q := range ecvs {
		names[k] = q.QualifiedName()
	}
	p := newPlan(ecvs, names)
	p.fold, p.layouts = fold, map[layoutKey]*layout{}
	i.plan.Store(p)
	return p
}

// pin splits the plan for a request that pins ECVs: the pinned values by
// qualified name, and a plan of the request's own over the rest,
// re-indexed and with fresh strides. With nothing pinned it is p itself.
func (p *ecvPlan) pin(iface string, fixed map[string]Value) (*ecvPlan, map[string]Value, error) {
	if len(fixed) == 0 {
		return p, nil, nil
	}
	base := make(map[string]Value, len(fixed))
	ecvs := make([]QualifiedECV, 0, len(p.ecvs))
	names := make([]string, 0, len(p.ecvs))
	for k, qn := range p.names {
		if v, ok := fixed[qn]; ok {
			base[qn] = v
		} else {
			ecvs, names = append(ecvs, p.ecvs[k]), append(names, qn)
		}
	}
	for qn := range fixed {
		if _, ok := base[qn]; !ok {
			return nil, nil, fmt.Errorf("core: interface %s: fixed ECV %q does not exist", iface, qn)
		}
	}
	return newPlan(ecvs, names), base, nil
}

// observed returns the part of the enumeration or the sampling space a
// body run can tell apart: all of it for the interpreter, which may read
// any ECV, and spec.Deps for a compiled program, cached by Deps on a tree's
// plan. Points that differ only in unobserved ECVs share one body run, so
// a method depending on no free ECV runs exactly once whatever the space
// size.
func (p *ecvPlan) observed(spec SpecializedProgram, sampling bool) *layout {
	full := &p.enum
	if sampling {
		full = &p.draw
	}
	if spec == nil {
		return full
	}
	deps := spec.Deps()
	if p.layouts == nil || len(p.ecvs) > 64 {
		return newLayout(full.obs, deps)
	}
	key := layoutKey{sampling: sampling}
	for _, k := range deps {
		key.deps |= 1 << k
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.layouts[key]
	if l == nil {
		l = newLayout(full.obs, deps)
		if len(p.layouts) < maxLayouts {
			p.layouts[key] = l
		}
	}
	return l
}

// layoutKey names a specialization's layout by the space and its Deps.
// Deps sets are few, and maxLayouts bounds what a tree version keeps.
type layoutKey struct {
	sampling bool
	deps     uint64 // bit k: free ECV k is observed
}

const maxLayouts = 256

// enumChunkSize is the number of assignments one evaluation work unit
// covers. Chunks are contiguous ranges of points, so results land in the
// same order as a sequential walk.
const enumChunkSize = 32

// freeDim is one free ECV as a dimension of a row-major assignment space:
// its position among the Eval's free ECVs, the support points that span
// the dimension, and its stride.
type freeDim struct {
	k      int
	qn     string
	ws     []Weighted
	stride int
}

// setStrides lays dims out row-major (the first dimension is the most
// significant digit) and returns the size of the space they span.
func setStrides(dims []freeDim) int {
	total := 1
	for d := len(dims) - 1; d >= 0; d-- {
		dims[d].stride = total
		total *= len(dims[d].ws)
	}
	return total
}

// evalPoints runs the method body once for each element of out and stores
// the result there: out[p] is the value at index idxs[p] of the space dims
// span, or at index p when idxs is nil (out then covers the whole space).
// It is the one place enumeration and Monte Carlo turn assignment indexes
// into values: through spec when the method compiled (dims are then its
// Deps), through the interpreter and the layer cache otherwise. Chunks of
// points fan out over runUnits, so the first error wins and a cancelled
// ctx stops the workers between two body runs.
func (i *Interface) evalPoints(ctx context.Context, m *Method, args []Value, base map[string]Value, nFree int,
	dims []freeDim, idxs []int, out []float64, opts EvalOptions, ev *layerEval, spec SpecializedProgram) error {

	n := len(out)
	nChunks := (n + enumChunkSize - 1) / enumChunkSize
	return runUnits(ctx, nChunks, opts.parallelism(), func(chunk int, g *evalGroup) error {
		var vals []Value
		var assign map[string]Value
		if spec != nil {
			valsP := borrowVals(nFree)
			defer valsPool.Put(valsP)
			vals = *valsP
		} else {
			assign = make(map[string]Value, len(base)+len(dims))
			for k, v := range base {
				assign[k] = v
			}
		}
		lo := chunk * enumChunkSize
		hi := min(lo+enumChunkSize, n)
		for p := lo; p < hi; p++ {
			if g.cancelled() {
				return nil
			}
			idx := p
			if idxs != nil {
				idx = idxs[p]
			}
			for d := range dims {
				dim := &dims[d]
				v := dim.ws[(idx/dim.stride)%len(dim.ws)].V
				if spec != nil {
					vals[dim.k] = v
				} else {
					assign[dim.qn] = v
				}
			}
			var err error
			if spec != nil {
				out[p], err = spec.Run(vals)
			} else {
				var j energy.Joules
				j, err = i.evalOnce(m, args, assign, ev)
				out[p] = float64(j)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

func (i *Interface) evalEnumerate(ctx context.Context, m *Method, args []Value, base map[string]Value,
	plan *ecvPlan, opts EvalOptions, ev *layerEval, spec SpecializedProgram) (energy.Dist, error) {

	// The joint space: every free ECV with its zero-probability support
	// points dropped, the first ECV the most significant digit.
	full := plan.enum
	valuesP, probsP := energy.BorrowScratch(full.size), energy.BorrowScratch(full.size)
	defer energy.ReturnScratch(valuesP)
	defer energy.ReturnScratch(probsP)
	values, probs := *valuesP, *probsP

	// One body run per point of the observed space. The interpreter observes
	// the whole space, so its results land in values directly; a compiled
	// program's table is replicated over the dimensions it cannot see.
	obs, table := plan.observed(spec, false), values
	filled := false
	if spec != nil {
		tableP := energy.BorrowScratch(obs.size)
		defer energy.ReturnScratch(tableP)
		table = *tableP
		var err error
		if filled, err = spec.FillTable(obs.vals, table); err != nil {
			return energy.Dist{}, err
		}
	}
	if !filled {
		if err := i.evalPoints(ctx, m, args, base, len(plan.ecvs), obs.obs, nil, table, opts, ev, spec); err != nil {
			return energy.Dist{}, err
		}
	}

	if spec == nil {
		table = nil // values is already the full space
	}
	if err := fillJoint(ctx, full.obs, obs.obs, table, values, probs); err != nil {
		return energy.Dist{}, err
	}

	// A bound reads one end of the distribution, so it scans for it
	// instead of building the whole (DESIGN §6).
	switch opts.Mode {
	case ModeWorstCase:
		return energy.Point(energy.CategoricalMax(values, probs)), nil
	case ModeBestCase:
		return energy.Point(energy.CategoricalMin(values, probs)), nil
	default:
		return energy.Categorical(values, probs), nil
	}
}

// fillJoint writes every point of the space dims span, in index order:
// probs[idx] is the point's probability — its digits' P multiplied in dims
// order, starting from 1 — and, when table is not nil, values[idx] is the
// entry table (laid out over obs, a subset of dims) holds for the point's
// observed digits: a compiled table replicated over the dimensions the
// program cannot see.
//
// The digits are kept as an odometer, last dimension fastest, rather than
// derived from idx by a division and a remainder per dimension per point.
// Each wheel carries the product over the dimensions before it; a step
// recomputes the products only from the most significant digit that moved,
// and each is still 1·P₀·P₁·… multiplied left to right, so a point's
// probability is the bits the per-point loop produced. at is the table
// index, moved by a digit's stride in obs (0 for an unobserved dimension)
// as the digit moves.
func fillJoint(ctx context.Context, dims, obs []freeDim, table, values, probs []float64) error {
	n := len(dims)
	if len(probs) == 0 {
		return nil
	}
	type wheel struct {
		digit, step int
		pre         float64 // product of P over the dimensions before this one
	}
	var few [8]wheel
	wheels := few[:]
	if n > len(few) {
		wheels = make([]wheel, n)
	}
	wheels = wheels[:n]
	for j := range obs {
		wheels[obs[j].k].step = obs[j].stride
	}
	// carry recomputes the products from dimension k on — the ones before
	// it did not move — and returns the whole point's.
	carry := func(k int) float64 {
		p := 1.0
		if k > 0 {
			p = wheels[k].pre
		}
		for ; k < n; k++ {
			wheels[k].pre = p
			p *= dims[k].ws[wheels[k].digit].P
		}
		return p
	}
	p, at := carry(0), 0
	for idx := range probs {
		if idx%enumChunkSize == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		probs[idx] = p
		if table != nil {
			values[idx] = table[at]
		}
		k := n - 1
		for ; k >= 0; k-- {
			w := &wheels[k]
			w.digit++
			at += w.step
			if w.digit < len(dims[k].ws) {
				break
			}
			at -= w.digit * w.step
			w.digit = 0
		}
		if k >= 0 {
			p = carry(k)
		}
	}
	return nil
}

// mcShardSize is the number of samples one Monte Carlo shard draws from
// its own RNG stream. The shard layout depends only on opts.Samples, so
// the sample multiset — and therefore the resulting Dist — is identical
// no matter how many workers execute the shards.
const mcShardSize = 64

// evalMonteCarloDistinct is Monte Carlo over a joint space that fits
// EnumLimit: draw, evaluate distinct, count. Every shard consumes its RNG
// stream exactly as the per-sample loop in evalMonteCarlo does — one draw
// per free ECV per sample, in order — but records which point of the
// observed space the sample fell on instead of running the body. A body
// is a pure function of (args, assignment), so one run per point that was
// drawn, weighted by its hit count, is the same sample multiset and
// energy.Empirical turns it into the same Dist, bit for bit.
func (i *Interface) evalMonteCarloDistinct(ctx context.Context, m *Method, args []Value, base map[string]Value,
	plan *ecvPlan, opts EvalOptions, ev *layerEval, spec SpecializedProgram) (energy.Dist, error) {

	dims, obs := plan.draw.obs, plan.observed(spec, true)
	// strides[k] is free ECV k's stride in the observed space, 0 when the
	// body cannot see it: its draw is consumed and changes no index.
	strides, size := obs.strides, obs.size

	samples := opts.Samples
	distinct := min(samples, size)
	intsP := energy.BorrowInts(samples + size + 2*distinct)
	defer energy.ReturnInts(intsP)
	ints := *intsP
	drawn := ints[:samples]                    // per sample: the point it fell on
	seen := ints[samples : samples+size]       // per point: 1 + its position in points, 0 = not drawn
	points := ints[samples+size:][:0:distinct] // the points drawn, in first-drawn order
	counts := ints[samples+size+distinct:][:0:distinct]

	nShards := (samples + mcShardSize - 1) / mcShardSize
	err := runUnits(ctx, nShards, opts.parallelism(), func(shard int, g *evalGroup) error {
		rng := borrowRNG(shardSeed(opts.Seed, shard))
		defer rngPool.Put(rng)
		lo := shard * mcShardSize
		hi := min(lo+mcShardSize, samples)
		for s := lo; s < hi; s++ {
			idx := 0
			for k := range dims {
				idx += drawPoint(dims[k].ws, rng) * strides[k]
			}
			drawn[s] = idx
		}
		return nil
	})
	if err != nil {
		return energy.Dist{}, err
	}

	// First-drawn order keeps the sequential path's error the one the first
	// failing sample would have raised.
	clear(seen)
	for _, idx := range drawn {
		if seen[idx] == 0 {
			points = append(points, idx)
			counts = append(counts, 0)
			seen[idx] = len(points)
		}
		counts[seen[idx]-1]++
	}

	valuesP := energy.BorrowScratch(len(points))
	defer energy.ReturnScratch(valuesP)
	values := *valuesP
	if err := i.evalPoints(ctx, m, args, base, len(plan.ecvs), obs.obs, points, values, opts, ev, spec); err != nil {
		return energy.Dist{}, err
	}
	return energy.Empirical(values, counts), nil
}

// evalMonteCarlo runs the body once per sample. It serves joint spaces
// beyond EnumLimit, where too few samples coincide for a table of distinct
// assignments to pay: ModeMonteCarlo there, and the estimates the exact
// modes fall back to.
func (i *Interface) evalMonteCarlo(ctx context.Context, m *Method, args []Value, base map[string]Value,
	plan *ecvPlan, opts EvalOptions, ev *layerEval, spec SpecializedProgram) (energy.Dist, error) {

	samples := opts.Samples
	valuesP, probsP := energy.BorrowScratch(samples), energy.BorrowScratch(samples)
	defer energy.ReturnScratch(valuesP)
	defer energy.ReturnScratch(probsP)
	values, probs := *valuesP, *probsP
	p := 1.0 / float64(samples)
	for s := range probs {
		probs[s] = p
	}

	nShards := (samples + mcShardSize - 1) / mcShardSize
	err := runUnits(ctx, nShards, opts.parallelism(), func(shard int, g *evalGroup) error {
		rng := borrowRNG(shardSeed(opts.Seed, shard))
		defer rngPool.Put(rng)
		lo := shard * mcShardSize
		hi := min(lo+mcShardSize, samples)
		if spec != nil {
			// Compiled path: identical per-ECV draw order, so the sample
			// multiset — and the resulting Dist — matches the interpreter.
			valsP := borrowVals(len(plan.ecvs))
			defer valsPool.Put(valsP)
			vals := *valsP
			for s := lo; s < hi; s++ {
				if g.cancelled() {
					return nil
				}
				for k, q := range plan.ecvs {
					vals[k] = q.ECV.sample(rng)
				}
				v, err := spec.Run(vals)
				if err != nil {
					return err
				}
				values[s] = v
			}
			return nil
		}
		assign := make(map[string]Value, len(base)+len(plan.ecvs))
		for k, v := range base {
			assign[k] = v
		}
		for s := lo; s < hi; s++ {
			if g.cancelled() {
				return nil
			}
			for k, q := range plan.ecvs {
				assign[plan.names[k]] = q.ECV.sample(rng)
			}
			j, err := i.evalOnce(m, args, assign, ev)
			if err != nil {
				return err
			}
			values[s] = float64(j)
		}
		return nil
	})
	if err != nil {
		return energy.Dist{}, err
	}
	switch opts.Mode {
	case ModeWorstCase:
		worst := values[0]
		for _, v := range values[1:] {
			if v > worst {
				worst = v
			}
		}
		return energy.Point(worst), nil
	case ModeBestCase:
		best := values[0]
		for _, v := range values[1:] {
			if v < best {
				best = v
			}
		}
		return energy.Point(best), nil
	default:
		return energy.Categorical(values, probs), nil
	}
}

// ExpectedJoules is a convenience: the mean of Eval in ModeExpected.
func (i *Interface) ExpectedJoules(method string, args ...Value) (energy.Joules, error) {
	d, err := i.Eval(method, args, Expected())
	if err != nil {
		return 0, err
	}
	return energy.Joules(d.Mean()), nil
}

// WorstCaseJoules is a convenience: the value of Eval in ModeWorstCase.
func (i *Interface) WorstCaseJoules(method string, args ...Value) (energy.Joules, error) {
	d, err := i.Eval(method, args, WorstCase())
	if err != nil {
		return 0, err
	}
	return energy.Joules(d.Max()), nil
}
