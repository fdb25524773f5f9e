package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"energyclarity/internal/energy"
)

// referenceMonteCarlo is the Monte Carlo loop as it stood before samples
// were tabulated, kept as the oracle for every path that replaced it: one
// freshly allocated generator per 64-sample shard, one body run per
// sample, a Categorical over the N singletons. It shares evalOnce and the
// compiler hook with the engine and nothing else.
func referenceMonteCarlo(i *Interface, method string, args []Value, opts EvalOptions) (energy.Dist, error) {
	m := i.methods[method]
	if opts.Samples <= 0 {
		opts.Samples = DefaultSamples
	}
	var free []QualifiedECV
	base := map[string]Value{}
	for _, q := range i.TransitiveECVs() {
		if v, ok := opts.Fixed[q.QualifiedName()]; ok {
			base[q.QualifiedName()] = v
		} else {
			free = append(free, q)
		}
	}
	var ev *layerEval
	if opts.Layer != nil {
		ev = opts.Layer.evalContext(i)
	}
	spec := i.specializeFor(method, i.subtreeFold(), opts, args, base, free)

	sample := func(e ECV, rng *rand.Rand) Value {
		u := rng.Float64()
		acc := 0.0
		for _, w := range e.Dist {
			acc += w.P
			if u < acc {
				return w.V
			}
		}
		return e.Dist[len(e.Dist)-1].V
	}
	values := make([]float64, opts.Samples)
	probs := make([]float64, opts.Samples)
	var rng *rand.Rand
	for s := range values {
		if s%mcShardSize == 0 {
			rng = rand.New(rand.NewSource(shardSeed(opts.Seed, s/mcShardSize)))
		}
		probs[s] = 1.0 / float64(opts.Samples)
		assign := map[string]Value{}
		for k, v := range base {
			assign[k] = v
		}
		vals := make([]Value, len(free))
		for k, q := range free {
			vals[k] = sample(q.ECV, rng)
			assign[q.QualifiedName()] = vals[k]
		}
		if spec != nil {
			v, err := spec.Run(vals)
			if err != nil {
				return energy.Dist{}, err
			}
			values[s] = v
			continue
		}
		j, err := i.evalOnce(m, args, assign, ev)
		if err != nil {
			return energy.Dist{}, err
		}
		values[s] = float64(j)
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
	}
	return energy.Categorical(values, probs), nil
}

// mcTree is a two-level tree whose body reads some of its ECVs on some
// paths only: lvl has zero-probability support points in the middle and at
// the end, and dev.hot is read only when lvl < 3.
func mcTree() *Interface {
	dev := New("dev").
		MustECV(BoolECV("hot", 0.25, "")).
		MustMethod(Method{Name: "cost", Params: []string{"n"}, Body: func(c *Call) energy.Joules {
			if c.ECVBool("hot") {
				return energy.Joules(1.7 * c.Num(0))
			}
			return energy.Joules(0.3 * c.Num(0))
		}})
	return New("svc").
		MustECV(NumECV("lvl", []float64{1, 2, 3, 4, 5}, []float64{0.3, 0, 0.45, 0.25, 0}, "")).
		MustECV(BoolECV("miss", 0.6, "")).
		MustECV(BoolECV("unread", 0.5, "")).
		MustBind("dev", dev).
		MustMethod(Method{Name: "run", Params: []string{"n"}, Body: func(c *Call) energy.Joules {
			j := energy.Joules(c.ECVNum("lvl") / 3)
			if c.ECVBool("miss") {
				j += 10
			}
			if c.ECVNum("lvl") < 3 {
				j += c.E("dev", "cost", c.Arg(0))
			}
			return j
		}})
}

// fakeProgram stands in for internal/opt (which imports this package): a
// "compiled" method that runs the interpreter body under the assignment
// its vals describe, observing only the ECVs named in observes. Unobserved
// slots of vals are ignored, as a real program ignores them.
type fakeProgram struct {
	iface    *Interface
	method   string
	observes []string // qualified ECV names
	bulk     bool     // offer the FillTable path
}

type fakeSpec struct {
	*fakeProgram
	args   []Value
	pinned map[string]Value
	free   []QualifiedECV
	deps   []int
}

func (p *fakeProgram) Specialize(args []Value, pinned map[string]Value, free []QualifiedECV) (SpecializedProgram, bool) {
	s := &fakeSpec{fakeProgram: p, args: args, pinned: pinned, free: free}
	for d, q := range free {
		for _, qn := range p.observes {
			if q.QualifiedName() == qn {
				s.deps = append(s.deps, d)
			}
		}
	}
	return s, true
}

func (s *fakeSpec) Deps() []int { return s.deps }

func (s *fakeSpec) Release() {}

func (s *fakeSpec) Run(vals []Value) (float64, error) {
	assign := map[string]Value{}
	for k, v := range s.pinned {
		assign[k] = v
	}
	for _, q := range s.free {
		assign[q.QualifiedName()] = q.ECV.Dist[0].V
	}
	for _, d := range s.deps {
		assign[s.free[d].QualifiedName()] = vals[d]
	}
	j, err := s.iface.evalOnce(s.iface.methods[s.method], s.args, assign, nil)
	return float64(j), err
}

func (s *fakeSpec) FillTable(dims [][]Value, out []float64) (bool, error) {
	if !s.bulk {
		return false, nil
	}
	vals := make([]Value, len(s.free))
	for idx := range out {
		rest := idx
		for j := len(dims) - 1; j >= 0; j-- {
			vals[s.deps[j]] = dims[j][rest%len(dims[j])]
			rest /= len(dims[j])
		}
		v, err := s.Run(vals)
		if err != nil {
			return true, err
		}
		out[idx] = v
	}
	return true, nil
}

// withFakeCompiler routes every Eval of iface.method through p for the
// duration of the test.
func withFakeCompiler(t *testing.T, p *fakeProgram) {
	t.Helper()
	RegisterCompiler(func(root *Interface, method string) (CompiledProgram, error) {
		if root != p.iface || method != p.method {
			return nil, nil
		}
		return p, nil
	})
	t.Cleanup(func() { RegisterCompiler(nil) })
}

// TestMonteCarloMatchesPerSampleReference is the bit-identity suite for
// the draw → evaluate distinct → count path (and the pooled generators of
// the per-sample path): every engine, parallelism, ragged sample count,
// pinning and fall-back must give the reference loop's Dist exactly.
func TestMonteCarloMatchesPerSampleReference(t *testing.T) {
	arg := []Value{Num(7)}
	pinned := map[string]Value{"miss": Bool(true)}
	type variant struct {
		name     string
		opts     EvalOptions
		compiled bool // through fakeProgram, which observes what run's body reads: not unread
		bulk     bool
	}
	variants := []variant{
		{name: "interpreted"},
		{name: "interpreted+layer", opts: EvalOptions{Layer: NewLayerCache(0)}},
		{name: "pinned", opts: EvalOptions{Fixed: pinned}},
		{name: "per-sample", opts: EvalOptions{EnumLimit: 1}},
		{name: "per-sample+layer", opts: EvalOptions{EnumLimit: 1, Layer: NewLayerCache(0)}},
		{name: "worst-fallback", opts: EvalOptions{Mode: ModeWorstCase, EnumLimit: 1}},
		{name: "best-fallback", opts: EvalOptions{Mode: ModeBestCase, EnumLimit: 1, Fixed: pinned}},
		{name: "compiled", compiled: true},
		{name: "compiled+bulk", compiled: true, bulk: true},
		{name: "compiled+pinned", compiled: true, opts: EvalOptions{Fixed: pinned}},
		{name: "compiled+per-sample", compiled: true, opts: EvalOptions{EnumLimit: 1}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			tree := mcTree() // fresh per variant: compiled programs are cached on the tree
			if v.compiled {
				withFakeCompiler(t, &fakeProgram{iface: tree, method: "run",
					observes: []string{"lvl", "miss", "dev.hot"}, bulk: v.bulk})
			}
			evalsBefore := ReadProgramStats().CompiledEvals
			for _, samples := range []int{1, 17, 63, 64, 3*mcShardSize + 8, 4096} {
				for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
					opts := v.opts
					if opts.Mode == ModeExpected {
						opts.Mode = ModeMonteCarlo
					}
					opts.Samples, opts.Seed, opts.Parallelism = samples, int64(1000+samples), par
					got, err := tree.Eval("run", arg, opts)
					if err != nil {
						t.Fatal(err)
					}
					ref := opts
					ref.Layer = nil
					want, err := referenceMonteCarlo(tree, "run", arg, ref)
					if err != nil {
						t.Fatal(err)
					}
					bitIdentical(t, got, want, fmt.Sprintf("samples=%d par=%d", samples, par))
				}
			}
			if ran := ReadProgramStats().CompiledEvals != evalsBefore; ran != v.compiled {
				t.Errorf("compiled path taken = %v, want %v", ran, v.compiled)
			}
		})
	}
}

// TestMonteCarloRunsEachDistinctAssignmentOnce pins the point of the
// tabulated path: body runs are bounded by the joint space, not by the
// sample count, and a compiled program's by the space it can observe.
func TestMonteCarloRunsEachDistinctAssignmentOnce(t *testing.T) {
	var runs atomic.Int64
	iface := New("count").
		MustECV(NumECV("a", []float64{0, 1, 2}, []float64{1, 1, 1}, "")).
		MustECV(BoolECV("b", 0.5, "")).
		MustMethod(Method{Name: "e", Body: func(c *Call) energy.Joules {
			runs.Add(1)
			return energy.Joules(c.ECVNum("a"))
		}})
	if _, err := iface.Eval("e", nil, MonteCarlo(4096, 3)); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 6 {
		t.Errorf("interpreter: %d body runs for a 6-point space, want 6", n)
	}
	runs.Store(0)
	withFakeCompiler(t, &fakeProgram{iface: iface, method: "e", observes: []string{"a"}})
	if _, err := iface.Eval("e", nil, MonteCarlo(4096, 3)); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 3 {
		t.Errorf("compiled: %d body runs for a 3-point observed space, want 3", n)
	}
}

// fixedSource is a rand.Source stuck at one 63-bit value, to place
// rng.Float64() exactly where the scan's rounding fallback is reached.
type fixedSource struct{ v int64 }

func (s *fixedSource) Int63() int64 { return s.v }
func (s *fixedSource) Seed(int64)   {}

// TestDrawPointFallsToLastPoint: a draw no support point claims — the
// probabilities fall a hair short of u — goes to the last point even when
// that point has probability zero, exactly as sample always did.
func TestDrawPointFallsToLastPoint(t *testing.T) {
	e := ECV{Name: "x", Dist: []Weighted{{Num(1), 0.5}, {Num(2), 0.4999999999}, {Num(3), 0}}}
	if err := e.validate(); err != nil {
		t.Fatal(err)
	}
	for u, want := range map[int64]int{0: 0, 1 << 61: 0, 1 << 62: 1, 1<<63 - 1024: 2} {
		rng := rand.New(&fixedSource{u})
		if got := drawPoint(e.Dist, rng); got != want {
			t.Errorf("draw at u=%v picked point %d, want %d", rng.Float64(), got, want)
		}
		if got := e.sample(rng); !got.Equal(e.Dist[want].V) {
			t.Errorf("sample at u=%v returned %v, want %v", rng.Float64(), got, e.Dist[want].V)
		}
	}
}

// TestBorrowRNGStreamIdentical: a recycled, re-seeded generator must yield
// the stream of a freshly built one, whatever it was used for before.
func TestBorrowRNGStreamIdentical(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, shardSeed(7, 63), math.MinInt64, math.MaxInt64} {
		dirty := borrowRNG(seed ^ 0x5a5a)
		for k := 0; k < int(uint64(seed)%100)+1; k++ {
			dirty.Float64()
		}
		rngPool.Put(dirty)
		got, want := borrowRNG(seed), rand.New(rand.NewSource(seed))
		for k := 0; k < 1000; k++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: pooled %v, fresh %v", seed, k, g, w)
			}
		}
		rngPool.Put(got)
	}
}

// failingTree fails at lvl 3 and at lvl 5, each with its own error.
func failingTree(runs *atomic.Int64) *Interface {
	levels := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	return New("failing").
		MustECV(NumECV("lvl", levels, []float64{1, 1, 1, 1, 1, 1, 1, 1}, "")).
		MustMethod(Method{Name: "e", Body: func(c *Call) energy.Joules {
			runs.Add(1)
			if lvl := c.ECVNum("lvl"); lvl == 3 || lvl == 5 {
				Fail(fmt.Errorf("boom at level %v", lvl))
			}
			return 1
		}})
}

// TestDistinctPassFirstErrorWins is TestEvalErrorCancelsRemainingShards'
// twin for the distinct-evaluation pass: a failing assignment that was
// drawn fails the Eval at every parallelism, after at most one body run
// per point of the space; and the sequential path reports the error the
// first failing sample raises, as the per-sample loop does.
func TestDistinctPassFirstErrorWins(t *testing.T) {
	var runs atomic.Int64
	iface := failingTree(&runs)
	opts := MonteCarlo(4096, 11)
	_, want := referenceMonteCarlo(iface, "e", nil, opts)
	if want == nil {
		t.Fatal("reference drew no failing assignment")
	}
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		before := energy.ScratchOutstanding()
		runs.Store(0)
		opts.Parallelism = par
		_, err := iface.Eval("e", nil, opts)
		if err == nil {
			t.Fatalf("par %d: expected error", par)
		}
		if par == 1 && err.Error() != want.Error() {
			t.Errorf("sequential error = %q, per-sample loop reports %q", err, want)
		}
		if n := runs.Load(); n > 8 {
			t.Errorf("par %d: %d body runs over an 8-point space", par, n)
		}
		if after := energy.ScratchOutstanding(); after != before {
			t.Errorf("par %d: %d scratch buffers not returned after an error", par, after-before)
		}
	}
}

// lateCancelCtx reports no error the first time it is asked — EvalCtx's
// entry check — and is cancelled from then on, so the cancellation lands
// in the first pass that polls: the draw.
type lateCancelCtx struct {
	context.Context
	asked  atomic.Bool
	closed chan struct{}
}

func newLateCancelCtx() *lateCancelCtx {
	c := &lateCancelCtx{Context: context.Background(), closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *lateCancelCtx) Done() <-chan struct{} { return c.closed }
func (c *lateCancelCtx) Err() error {
	if c.asked.Swap(true) {
		return context.Canceled
	}
	return nil
}

// TestCancelDuringDrawPass: a context cancelled while the shards are still
// drawing returns ctx.Err() before any body runs and leaves no scratch
// buffer behind.
func TestCancelDuringDrawPass(t *testing.T) {
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		var calls atomic.Int64
		release := make(chan struct{})
		close(release)
		iface := gateIface(make(chan struct{}, 1), release, &calls)
		before := energy.ScratchOutstanding()
		_, err := iface.EvalCtx(newLateCancelCtx(), "work", nil,
			EvalOptions{Mode: ModeMonteCarlo, Samples: 4096, Seed: 5, Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("par %d: err = %v, want context.Canceled", par, err)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("par %d: %d bodies ran after a cancellation during the draw", par, n)
		}
		if after := energy.ScratchOutstanding(); after != before {
			t.Errorf("par %d: %d scratch buffers not returned after cancellation", par, after-before)
		}
	}
}
