package opt

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/energy"
	"energyclarity/internal/nn"
)

func compileEIL(t *testing.T, src string) *core.Interface {
	t.Helper()
	iface, err := eil.CompileOne(src, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return iface
}

// distBitsEqual demands exact (bit-level) equality of support and
// probabilities — the compiled path must replicate the interpreter's
// float operations, not approximate them.
func distBitsEqual(a, b energy.Dist) bool {
	ax, bx := a.Support(), b.Support()
	ap, bp := a.Probs(), b.Probs()
	if len(ax) != len(bx) {
		return false
	}
	for i := range ax {
		if math.Float64bits(ax[i]) != math.Float64bits(bx[i]) ||
			math.Float64bits(ap[i]) != math.Float64bits(bp[i]) {
			return false
		}
	}
	return true
}

// fixedAssignment pins every transitive ECV to one of its support values.
func fixedAssignment(iface *core.Interface, rng *rand.Rand) map[string]core.Value {
	assign := map[string]core.Value{}
	for _, q := range iface.TransitiveECVs() {
		d := q.ECV.Dist
		assign[q.QualifiedName()] = d[rng.Intn(len(d))].V
	}
	return assign
}

// allModeOpts returns one EvalOptions per mode, with ModeFixed pinning
// every ECV deterministically.
func allModeOpts(iface *core.Interface, seed int64) []core.EvalOptions {
	rng := rand.New(rand.NewSource(seed))
	return []core.EvalOptions{
		core.Expected(),
		core.WorstCase(),
		core.BestCase(),
		core.MonteCarlo(517, seed),
		core.FixedAssignment(fixedAssignment(iface, rng)),
	}
}

// checkBitIdentity evaluates method under opts through the compiled path
// and the forced-interpreter path and requires bit-identical results (or
// matching error presence — error text may differ between the two).
func checkBitIdentity(t *testing.T, iface *core.Interface, method string, args []core.Value, opts core.EvalOptions) {
	t.Helper()
	compiled, cerr := iface.Eval(method, args, opts)
	interp := opts
	interp.Interpret = true
	want, ierr := iface.Eval(method, args, interp)
	if (cerr != nil) != (ierr != nil) {
		t.Fatalf("mode %v: compiled err = %v, interpreted err = %v", opts.Mode, cerr, ierr)
	}
	if cerr != nil {
		return
	}
	if !distBitsEqual(compiled, want) {
		t.Fatalf("mode %v: compiled %v != interpreted %v", opts.Mode, compiled, want)
	}
	if opts.Mode != core.ModeMonteCarlo {
		return
	}
	// Monte Carlo tabulates distinct assignments while the joint space fits
	// EnumLimit; the interpreter's one-body-run-per-sample loop beyond it
	// must give the same Dist.
	interp.EnumLimit = 1
	perSample, err := iface.Eval(method, args, interp)
	if err != nil {
		t.Fatalf("per-sample interpreted: %v", err)
	}
	if !distBitsEqual(compiled, perSample) {
		t.Fatalf("monte-carlo: tabulated compiled %v != per-sample interpreted %v", compiled, perSample)
	}
}

const fig1Src = `
interface accel_driver {
  func conv2d(n) { return 0.004mJ * n }
  func relu(n)   { return 0.001mJ * n }
  func mlp(n)    { return 0.01mJ * n }
}

interface redis_cache {
  ecv local_cache_hit: bernoulli(0.8)
  func lookup(key, response_len) {
    if local_cache_hit {
      return 5mJ * response_len
    } else {
      return 100mJ * response_len
    }
  }
}

interface ml_webservice {
  ecv request_hit: bernoulli(0.3)
  uses cache: redis_cache
  uses accel: accel_driver

  func handle(request) {
    let max_response_len = 1024
    if request_hit {
      return cache.lookup(request.image, max_response_len)
    } else {
      return cnn_forward(request)
    }
  }

  func cnn_forward(image) {
    let n_embedding = 256
    let n_zeros = image.zeros
    return 8 * accel.conv2d(image.size - n_zeros)
         + 8 * accel.relu(n_embedding)
         + 16 * accel.mlp(n_embedding)
  }
}
`

func fig1Request() core.Value {
	return core.Record(map[string]core.Value{
		"size": core.Num(1e6), "zeros": core.Num(2e5), "image": core.Num(1),
	})
}

func TestFig1BitIdentityAllModes(t *testing.T) {
	iface := compileEIL(t, fig1Src)
	args := []core.Value{fig1Request()}
	for _, opts := range allModeOpts(iface, 1) {
		checkBitIdentity(t, iface, "handle", args, opts)
	}
}

func TestBitIdenticalAcrossParallelism(t *testing.T) {
	iface := compileEIL(t, fig1Src)
	args := []core.Value{fig1Request()}
	for _, opts := range allModeOpts(iface, 2) {
		var ref energy.Dist
		for i, par := range []int{1, 2, 8} {
			o := opts
			o.Parallelism = par
			d, err := iface.Eval("handle", args, o)
			if err != nil {
				t.Fatalf("mode %v parallelism %d: %v", o.Mode, par, err)
			}
			if i == 0 {
				ref = d
			} else if !distBitsEqual(d, ref) {
				t.Fatalf("mode %v: parallelism %d diverges: %v vs %v", o.Mode, par, d, ref)
			}
		}
	}
}

func TestProgramStatsCount(t *testing.T) {
	iface := compileEIL(t, fig1Src)
	before := core.ReadProgramStats()
	if _, err := iface.Eval("handle", []core.Value{fig1Request()}, core.Expected()); err != nil {
		t.Fatal(err)
	}
	after := core.ReadProgramStats()
	if after.CompiledPrograms == before.CompiledPrograms {
		t.Fatal("expected a compiled program to be counted")
	}
	if after.CompiledEvals == before.CompiledEvals {
		t.Fatal("expected a compiled eval to be counted")
	}
	if after.Specializations != before.Specializations+1 {
		t.Fatalf("first eval emitted code %d times, want 1", after.Specializations-before.Specializations)
	}
	// A sweep over a data argument is served by the code already emitted.
	for n := 1; n <= 50; n++ {
		if _, err := iface.Binding("accel").Eval("conv2d", []core.Value{core.Num(float64(n) + 0.5)}, core.Expected()); err != nil {
			t.Fatal(err)
		}
	}
	swept := core.ReadProgramStats()
	if got := swept.CompiledEvals - after.CompiledEvals; got != 50 {
		t.Fatalf("sweep counted %d compiled evals, want 50", got)
	}
	if got := swept.Specializations - after.Specializations; got != 1 {
		t.Fatalf("50 unique data arguments emitted code %d times, want 1", got)
	}
}

// A method whose callee is Go-native cannot be inlined; evaluation must
// fall back to the interpreter, stay correct, and count the fallback.
func TestGoNativeBindingFallsBack(t *testing.T) {
	hw := core.New("hw").MustMethod(core.Method{
		Name: "op", Params: []string{"n"},
		Body: func(c *core.Call) energy.Joules { return energy.Joules(2 * c.Num(0)) },
	})
	src := `interface top {
	  uses hw: hw
	  func f(n) { return hw.op(n) + 1 }
	}`
	m, err := eil.Compile(src, map[string]*core.Interface{"hw": hw})
	if err != nil {
		t.Fatal(err)
	}
	top := m["top"]
	before := core.ReadProgramStats()
	d, err := top.Eval("f", []core.Value{core.Num(10)}, core.Expected())
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() != 21 {
		t.Fatalf("got %v, want 21", d.Mean())
	}
	after := core.ReadProgramStats()
	if after.CompileFallbacks == before.CompileFallbacks {
		t.Fatal("expected a compile fallback to be counted")
	}
}

// A loop bounded by a free ECV has no static trip count under
// enumeration; the specialization declines and the interpreter takes
// over — results must still match exactly.
func TestECVBoundedLoopFallsBack(t *testing.T) {
	src := `interface t {
	  ecv n: choice { 3: 0.5, 7: 0.5 }
	  func f() {
	    let total = 0
	    for i in 0 .. n {
	      total = total + i + 1
	    }
	    return total
	  }
	}`
	iface := compileEIL(t, src)
	for _, opts := range allModeOpts(iface, 3) {
		checkBitIdentity(t, iface, "f", nil, opts)
	}
	// Pinned (ModeFixed) the bound is constant, so this one must compile.
	before := core.ReadProgramStats()
	d, err := iface.Eval("f", nil, core.FixedAssignment(map[string]core.Value{"n": core.Num(3)}))
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() != 6 {
		t.Fatalf("got %v, want 6", d.Mean())
	}
	if core.ReadProgramStats().CompiledEvals == before.CompiledEvals {
		t.Fatal("pinned-bound loop should evaluate compiled")
	}
}

// Enumeration-free methods (no ECV dependence after specialization) must
// fully collapse: the program reports no deps and every mode agrees.
func TestClosedFormCollapse(t *testing.T) {
	src := `interface t {
	  ecv unused: bernoulli(0.5)
	  func f(n) {
	    let a = 3 * n + 2
	    return a * a - n
	  }
	}`
	iface := compileEIL(t, src)
	prog, err := CompileMethod(iface, "f")
	if err != nil || prog == nil {
		t.Fatalf("CompileMethod: prog=%v err=%v", prog, err)
	}
	spec, ok := prog.Specialize([]core.Value{core.Num(4)}, nil, iface.TransitiveECVs())
	if !ok {
		t.Fatal("specialization declined")
	}
	if deps := spec.Deps(); len(deps) != 0 {
		t.Fatalf("deps = %v, want none", deps)
	}
	for _, opts := range allModeOpts(iface, 4) {
		checkBitIdentity(t, iface, "f", []core.Value{core.Num(4)}, opts)
	}
}

// Rebind produces a new tree whose subtree versions differ; the compiled
// program cache must not serve stale code for it.
func TestRebindInvalidatesPrograms(t *testing.T) {
	iface := compileEIL(t, fig1Src)
	args := []core.Value{fig1Request()}
	d1, err := iface.Eval("handle", args, core.Expected())
	if err != nil {
		t.Fatal(err)
	}

	cheap := compileEIL(t, `interface accel_driver2 {
	  func conv2d(n) { return 0.002mJ * n }
	  func relu(n)   { return 0.001mJ * n }
	  func mlp(n)    { return 0.01mJ * n }
	}`)
	re, err := iface.Rebind("accel", cheap)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := re.Eval("handle", args, core.Expected())
	if err != nil {
		t.Fatal(err)
	}
	if distBitsEqual(d1, d2) {
		t.Fatal("rebind did not change the result: stale compiled program?")
	}
	for _, opts := range allModeOpts(re, 5) {
		checkBitIdentity(t, re, "handle", args, opts)
	}
	// The original tree must be untouched.
	d1b, err := iface.Eval("handle", args, core.Expected())
	if err != nil {
		t.Fatal(err)
	}
	if !distBitsEqual(d1, d1b) {
		t.Fatal("rebind mutated the original tree's compiled results")
	}
}

// Runtime errors (division by zero, non-finite builtin results) must
// surface from the compiled path exactly when the interpreter errors.
func TestRuntimeErrorPresenceAgrees(t *testing.T) {
	cases := []string{
		`interface t {
		  ecv d: choice { 0: 0.5, 2: 0.5 }
		  func f() { return 10 / d }
		}`,
		`interface t {
		  ecv big: choice { 1000: 0.5, 1: 0.5 }
		  func f() { return pow(10, big) + sqrt(0 - big) }
		}`,
		`interface t {
		  func f(x) { return x + 1 }
		}`,
	}
	args := [][]core.Value{nil, nil, {core.Str("not a number")}}
	for i, src := range cases {
		iface := compileEIL(t, src)
		for _, opts := range allModeOpts(iface, int64(10+i)) {
			checkBitIdentity(t, iface, "f", args[i], opts)
		}
	}
}

func TestRandomFixedAssignments(t *testing.T) {
	iface := compileEIL(t, fig1Src)
	args := []core.Value{fig1Request()}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		opts := core.FixedAssignment(fixedAssignment(iface, rng))
		checkBitIdentity(t, iface, "handle", args, opts)
	}
}

// Pinning a strict subset of ECVs exercises the partial-evaluation path:
// pinned values fold to constants, the rest stay enumeration dims.
func TestPartiallyPinnedECVs(t *testing.T) {
	iface := compileEIL(t, fig1Src)
	args := []core.Value{fig1Request()}
	for _, pin := range []map[string]core.Value{
		{"request_hit": core.Bool(true)},
		{"request_hit": core.Bool(false)},
		{"cache.local_cache_hit": core.Bool(true)},
	} {
		for _, mode := range []core.EvalOptions{core.Expected(), core.WorstCase(), core.MonteCarlo(129, 7)} {
			opts := mode
			opts.Fixed = pin
			checkBitIdentity(t, iface, "handle", args, opts)
		}
	}
}

func TestDumpMethodListsPasses(t *testing.T) {
	iface := compileEIL(t, fig1Src)
	out, err := DumpMethod(iface, "handle", []core.Value{fig1Request()})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lowered (inlined)", "folded", "parameters ==\n  arg0 request: control (non-num use)",
		"specialized", "code", "deps:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

// Two requests that differ only in a data argument bind the same emitted
// program: code is emitted once, each bind answers for its own argument,
// and a control argument or an arity mismatch still goes its own way.
func TestSpecializationCacheReuse(t *testing.T) {
	iface := compileEIL(t, `interface t {
	  ecv hot: bernoulli(0.5)
	  func f(n, reps) {
	    let total = 0
	    for i in 0 .. reps { total = total + n * 3 }
	    if hot { return total * 2 }
	    return total
	  }
	}`)
	prog, err := CompileMethod(iface, "f")
	if err != nil || prog == nil {
		t.Fatalf("CompileMethod: %v", err)
	}
	p := prog.(*Program)
	if p.params[0] != useData || p.params[1] != useLoopBound {
		t.Fatalf("params = %v, want [data, control (loop bound)]", p.params)
	}
	free := iface.TransitiveECVs()
	hot := []core.Value{core.Bool(true)}
	bind := func(n, reps float64) *bound {
		t.Helper()
		s, ok := p.Specialize([]core.Value{core.Num(n), core.Num(reps)}, nil, free)
		if !ok {
			t.Fatalf("f(%v, %v) declined", n, reps)
		}
		return s.(*bound)
	}
	before := core.ReadProgramStats().Specializations
	s1, s2 := bind(5, 2), bind(7.5, 2)
	if s1 == s2 || s1.specCode != s2.specCode {
		t.Fatal("binds differing in a data argument must be distinct and share one emitted program")
	}
	if got := core.ReadProgramStats().Specializations - before; got != 1 {
		t.Fatalf("emitted code %d times for one control tuple, want 1", got)
	}
	// Both binds are live at once: neither may see the other's argument.
	for _, c := range []struct {
		s    *bound
		want float64
	}{{s1, 5 * 3 * 2 * 2}, {s2, 7.5 * 3 * 2 * 2}} {
		if got, err := c.s.Run(hot); err != nil || got != c.want {
			t.Fatalf("Run = %v, %v; want %v", got, err, c.want)
		}
	}
	s1.Release()
	s2.Release()
	if s3 := bind(5, 3); s3.specCode == s1.specCode {
		t.Fatal("a different loop bound must not share code")
	}
	if got := core.ReadProgramStats().Specializations - before; got != 2 {
		t.Fatalf("emitted code %d times for two control tuples, want 2", got)
	}
	// A non-num passed for the data parameter folds by value, as a control
	// argument would: its own entry, and the runtime error is the VM's.
	sb, ok := p.Specialize([]core.Value{core.Bool(true), core.Num(2)}, nil, free)
	if !ok || sb.(*bound).specCode == s1.specCode {
		t.Fatal("a bool for a data parameter must specialize by value")
	}
	if _, err := sb.Run(hot); err == nil {
		t.Fatal("bool * 3 must fail at run time")
	}
	if s, ok := p.Specialize([]core.Value{core.Num(1)}, nil, free); ok || s != nil {
		t.Fatal("arity mismatch must decline to the interpreter")
	}
}

// The specialization cache is an LRU: once more control tuples than it
// holds have gone by, the recent ones are still cached and an evicted one
// is cached again on its next use — not re-emitted on every request.
func TestSpecializationCacheIsLRU(t *testing.T) {
	iface := compileEIL(t, `interface t {
	  func f(reps) {
	    let total = 0
	    for i in 0 .. reps { total = total + i }
	    return total
	  }
	}`)
	prog, err := CompileMethod(iface, "f")
	if err != nil || prog == nil {
		t.Fatalf("CompileMethod: %v", err)
	}
	p := prog.(*Program)
	emitted := func(reps int) uint64 {
		t.Helper()
		before := core.ReadProgramStats().Specializations
		s, ok := p.Specialize([]core.Value{core.Int(reps)}, nil, nil)
		if !ok {
			t.Fatalf("f(%d) declined", reps)
		}
		s.Release()
		if n := p.specs.Len(); n > specCacheSize {
			t.Fatalf("cache holds %d entries, bound is %d", n, specCacheSize)
		}
		return core.ReadProgramStats().Specializations - before
	}
	const tuples = specCacheSize + 40
	for reps := 0; reps < tuples; reps++ {
		if emitted(reps) != 1 {
			t.Fatalf("first use of reps=%d did not emit code", reps)
		}
	}
	if emitted(tuples-1) != 0 {
		t.Fatal("the most recent tuple was not cached")
	}
	if emitted(0) != 1 {
		t.Fatal("the oldest tuple should have been evicted")
	}
	if emitted(0) != 0 {
		t.Fatal("a re-requested tuple must be cached again")
	}
}

// Methods whose static step bound reaches the interpreter's fuel budget
// must decline compilation: the interpreter's ErrFuelExhausted is part of
// the semantics, and a compiled program would run past it.
func TestFuelBoundDeclines(t *testing.T) {
	src := `interface t {
	  func spin() {
	    let x = 0
	    for i in 0 .. 2000000 { x = x + 1 }
	    return x
	  }
	}`
	iface := compileEIL(t, src)
	prog, err := CompileMethod(iface, "spin")
	if err != nil || prog == nil {
		t.Fatalf("CompileMethod: prog=%v err=%v", prog, err)
	}
	if spec, ok := prog.Specialize(nil, nil, nil); ok || spec != nil {
		t.Fatal("over-fuel loop must decline specialization")
	}
	// Through Eval, both paths must report fuel exhaustion.
	_, cerr := iface.Eval("spin", nil, core.Expected())
	var fe *eil.ErrFuelExhausted
	if !errors.As(cerr, &fe) {
		t.Fatalf("compiled-path Eval: want *eil.ErrFuelExhausted, got %v", cerr)
	}
	// A loop under the budget must compile and agree with the interpreter.
	ok := compileEIL(t, `interface t {
	  func f() {
	    let x = 0
	    for i in 0 .. 1000 { x = x + i * 3 }
	    return x
	  }
	}`)
	for _, opts := range allModeOpts(ok, 21) {
		checkBitIdentity(t, ok, "f", nil, opts)
	}
}

// A loop bounded by a parameter makes that parameter control: each trip
// count is its own specialization, and the fuel verdict — which trip
// counts compile and which decline to the interpreter — sits exactly where
// it did when every argument folded, whatever the data argument is.
func TestParameterBoundedLoop(t *testing.T) {
	iface := compileEIL(t, `interface t {
	  func spin(n, x) {
	    let acc = 0
	    for i in 0 .. n { acc = acc + x * 2 }
	    return acc
	  }
	}`)
	prog, err := CompileMethod(iface, "spin")
	if err != nil || prog == nil {
		t.Fatalf("CompileMethod: prog=%v err=%v", prog, err)
	}
	// 7 interpreter steps per trip against a budget of 1,000,000.
	const lastCompiled = 142855
	for _, x := range []float64{1.5, -3, 1e300} {
		for n, want := range map[int]bool{3: true, lastCompiled: true, lastCompiled + 1: false, 2000000: false} {
			spec, ok := prog.Specialize([]core.Value{core.Int(n), core.Num(x)}, nil, nil)
			if ok != want {
				t.Fatalf("spin(%d, %v): compiled=%v, want %v", n, x, ok, want)
			}
			if ok {
				spec.Release()
			}
		}
	}
	before := core.ReadProgramStats().Specializations
	for _, args := range [][]core.Value{
		{core.Num(3), core.Num(1.5)}, {core.Num(3), core.Num(-8)}, {core.Num(4), core.Num(1.5)},
		{core.Num(2.5), core.Num(1.5)}, {core.Num(-1), core.Num(1.5)}, {core.Bool(true), core.Num(1.5)},
	} {
		for _, opts := range allModeOpts(iface, 41) {
			checkBitIdentity(t, iface, "spin", args, opts)
		}
	}
	// Four trip counts (3, 4, 2.5, -1) compiled, once each across x and the
	// five modes; the bool bound declined.
	if got := core.ReadProgramStats().Specializations - before; got != 4 {
		t.Fatalf("emitted code %d times, want 4", got)
	}
}

// Concurrent Evals bind the same cached programs to different data
// arguments at once, and the first of them emit two specializations side
// by side; every answer must be the sequential one. Run under -race this
// is the check that neither a bound register file nor the slots an
// emission writes are ever shared.
func TestConcurrentBindsShareCode(t *testing.T) {
	stack, err := nn.GPT2EILStack()
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 6
	args := func(w, r int) []core.Value {
		return []core.Value{core.Num(float64(16 + 7*w + r)), core.Num(float64(2 + 2*(w%2)))}
	}
	want := make([][]energy.Dist, workers)
	for w := range want {
		want[w] = make([]energy.Dist, rounds)
		for r := range want[w] {
			opts := core.Expected()
			opts.Interpret = true
			if want[w][r], err = stack.Eval("generate", args(w, r), opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	// No warm-up: the racing first Evals compile the method once (see
	// TestRacingFirstEvalsCompileOnce) and share its specialization cache.
	before := core.ReadProgramStats().Specializations
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := stack.Eval("generate", args(w, r), core.Expected())
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				if !distBitsEqual(got, want[w][r]) {
					t.Errorf("worker %d round %d: %v != %v", w, r, got, want[w][r])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := core.ReadProgramStats().Specializations - before; got != 2 {
		t.Fatalf("%d concurrent evals of two control tuples emitted code %d times, want 2", workers*rounds, got)
	}
}

// The first Evals of a method race when a batch brings N cold keys of a
// freshly registered or rebound stack. The method compiles once per
// (method, subtree fold) and every racer binds the one program, so its
// specialization cache fills once: 32 goroutines, one compilation, one
// emission.
func TestRacingFirstEvalsCompileOnce(t *testing.T) {
	stack, err := nn.GPT2EILStack()
	if err != nil {
		t.Fatal(err)
	}
	other, err := eil.Compile(nn.GPT2EIL, nil)
	if err != nil {
		t.Fatal(err)
	}
	re, err := stack.Rebind("hw", other["device_hw"])
	if err != nil {
		t.Fatal(err)
	}
	const method = "generate"
	args := []core.Value{core.Num(64), core.Num(8)}
	opts := core.Expected()
	opts.Interpret = true
	want, err := re.Eval(method, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := core.ReadProgramStats()
	const racers = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := re.Eval(method, args, core.Expected())
			if err != nil {
				t.Error(err)
			} else if !distBitsEqual(got, want) {
				t.Errorf("racing eval answered %v, want %v", got, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	after := core.ReadProgramStats()
	if got := after.CompiledPrograms - before.CompiledPrograms; got != 1 {
		t.Errorf("%d racing first evals compiled the method %d times, want 1", racers, got)
	}
	if got := after.Specializations - before.Specializations; got != 1 {
		t.Errorf("%d racing first evals emitted code %d times, want 1", racers, got)
	}
	if got := after.CompiledEvals - before.CompiledEvals; got != racers {
		t.Errorf("%d of %d evals went through the compiled program", got, racers)
	}
}

// Binding a cached program to a new data argument is the per-request cost
// of the compiled path: the key is built on the stack and the register
// file comes from the specialization's pool, so on the five methods the
// serving benchmark asks unique questions of it stays within the budget of
// three allocations for the key and two for the bound.
func TestBindAllocs(t *testing.T) {
	gpt2, err := nn.GPT2EILStack()
	if err != nil {
		t.Fatal(err)
	}
	moe, err := nn.MoEEILStack()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		iface  *core.Interface
		method string
		rest   []core.Value
	}{
		{gpt2, "generate", []core.Value{core.Num(6)}},
		{gpt2, "layer_decode", nil},
		{gpt2, "decode_token", nil},
		{moe, "energy", []core.Value{core.Num(2), core.Num(4)}},
		{moe, "latency", []core.Value{core.Num(2), core.Num(4)}},
	} {
		prog, err := CompileMethod(c.iface, c.method)
		if err != nil || prog == nil {
			t.Fatalf("%s: CompileMethod: prog=%v err=%v", c.method, prog, err)
		}
		free := c.iface.TransitiveECVs()
		args := append([]core.Value{core.Nil()}, c.rest...)
		n := 0.0
		allocs := testing.AllocsPerRun(200, func() {
			n++
			args[0] = core.Num(16 + n/1024)
			spec, ok := prog.Specialize(args, nil, free)
			if !ok {
				t.Fatalf("%s declined", c.method)
			}
			spec.Release()
		})
		if allocs > 5 {
			t.Errorf("%s: %.1f allocs per bind, want <= 5", c.method, allocs)
		}
	}
}

// The full GPT-2 EIL stack — deep inlining, 12-layer loops, two ECVs —
// must actually compile (not silently fall back) and agree with the
// interpreter bit for bit in every mode.
func TestGPT2StackCompilesBitIdentical(t *testing.T) {
	stack, err := nn.GPT2EILStack()
	if err != nil {
		t.Fatal(err)
	}
	args := []core.Value{core.Num(64), core.Num(4)}
	before := core.ReadProgramStats()
	for _, opts := range allModeOpts(stack, 31) {
		checkBitIdentity(t, stack, "generate", args, opts)
	}
	after := core.ReadProgramStats()
	if after.CompiledEvals == before.CompiledEvals {
		t.Fatal("GPT-2 stack did not evaluate through a compiled program")
	}
	checkBitIdentity(t, stack, "prefill", []core.Value{core.Num(128)}, core.Expected())
	checkBitIdentity(t, stack, "decode_token", []core.Value{core.Num(128)}, core.Expected())
}

// TestLayerCacheBypassedByCompiledPath pins down how the two caches
// divide the world: a LayerCache attached to a pure-EIL (compilable) tree
// sees no traffic — the flat program inlined every sub-call the layer
// would have memoized — while an Interpret-forced run over the same tree
// populates it, and both engines return bit-identical distributions.
func TestLayerCacheBypassedByCompiledPath(t *testing.T) {
	stack, err := nn.GPT2EILStack()
	if err != nil {
		t.Fatal(err)
	}
	args := []core.Value{core.Num(16), core.Num(4)}
	lc := core.NewLayerCache(0)
	opts := core.Expected()
	opts.Layer = lc

	before := core.ReadProgramStats()
	got, err := stack.Eval("generate", args, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := core.ReadProgramStats()
	if after.CompiledEvals == before.CompiledEvals {
		t.Fatal("layer-attached eval did not use the compiled path")
	}
	if st := lc.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("compiled eval touched the layer cache: %+v", st)
	}

	iopts := opts
	iopts.Interpret = true
	want, err := stack.Eval("generate", args, iopts)
	if err != nil {
		t.Fatal(err)
	}
	if st := lc.Stats(); st.Misses == 0 {
		t.Fatal("interpreted eval did not populate the layer cache")
	}
	if !distBitsEqual(got, want) {
		t.Fatal("compiled (layer-attached) and interpreted distributions differ")
	}
}
