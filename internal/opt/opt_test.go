package opt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// randProgram generates a random but well-formed EIL interface: nested
// lets, conditionals on a boolean ECV, a bounded accumulation loop, and
// arithmetic over parameters, prior locals and a numeric ECV.
func randProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("interface r {\n")
	b.WriteString("  ecv flip: bernoulli(0.4)\n")
	b.WriteString("  ecv load: choice { 1: 0.5, 2: 0.25, 4: 0.25 }\n")

	scope := []string{"n", "load"}
	expr := func(depth int) string { return randExpr(rng, scope, depth) }

	b.WriteString("  func f(n) {\n")
	nLets := 1 + rng.Intn(3)
	for i := 0; i < nLets; i++ {
		name := fmt.Sprintf("v%d", i)
		fmt.Fprintf(&b, "    let %s = %s\n", name, expr(2))
		scope = append(scope, name)
	}
	if rng.Intn(2) == 0 {
		tgt := scope[2+rng.Intn(nLets)]
		fmt.Fprintf(&b, "    if flip {\n      %s = %s\n    }\n", tgt, expr(2))
	}
	fmt.Fprintf(&b, "    let acc = 0\n")
	loopScope := append(append([]string(nil), scope...), "i")
	fmt.Fprintf(&b, "    for i in 0 .. %d {\n      acc = acc + %s\n    }\n",
		1+rng.Intn(5), randExpr(rng, loopScope, 2))
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&b, "    if flip && acc > %d {\n      return %s\n    }\n",
			rng.Intn(10), expr(1))
	}
	fmt.Fprintf(&b, "    return acc + %s\n  }\n}\n", expr(2))
	return b.String()
}

func randExpr(rng *rand.Rand, scope []string, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", rng.Intn(9))
		case 1:
			return "0.5"
		default:
			return scope[rng.Intn(len(scope))]
		}
	}
	a := randExpr(rng, scope, depth-1)
	c := randExpr(rng, scope, depth-1)
	switch rng.Intn(7) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, c)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, c)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, c)
	case 3:
		return fmt.Sprintf("min(%s, %s)", a, c)
	case 4:
		return fmt.Sprintf("max(%s, %s)", a, c)
	case 5:
		return fmt.Sprintf("abs(%s)", a)
	default:
		return fmt.Sprintf("(%s / (abs(%s) + 1))", a, c)
	}
}

func TestRandomProgramsBitIdentity(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randProgram(rng)
		iface, err := eil.CompileOne(src, nil)
		if err != nil {
			t.Fatalf("seed %d: generated invalid EIL: %v\n%s", seed, err, src)
		}
		args := []core.Value{core.Num(float64(rng.Intn(20)))}
		for _, opts := range allModeOpts(iface, seed) {
			compiled, cerr := iface.Eval("f", args, opts)
			interp := opts
			interp.Interpret = true
			want, ierr := iface.Eval("f", args, interp)
			if (cerr != nil) != (ierr != nil) {
				t.Fatalf("seed %d mode %v: compiled err %v vs interpreted err %v\n%s",
					seed, opts.Mode, cerr, ierr, src)
			}
			if cerr == nil && !distBitsEqual(compiled, want) {
				t.Fatalf("seed %d mode %v: %v != %v\n%s", seed, opts.Mode, compiled, want, src)
			}
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
	for _, want := range []string{"lowered (inlined)", "folded", "specialized", "code", "deps:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestSpecializationCacheReuse(t *testing.T) {
	iface := compileEIL(t, fig1Src)
	prog, err := CompileMethod(iface, "handle")
	if err != nil || prog == nil {
		t.Fatalf("CompileMethod: %v", err)
	}
	p := prog.(*Program)
	args := []core.Value{fig1Request()}
	free := iface.TransitiveECVs()
	s1, ok1 := p.Specialize(args, nil, free)
	s2, ok2 := p.Specialize(args, nil, free)
	if !ok1 || !ok2 || s1 != s2 {
		t.Fatal("identical specializations not cached")
	}
	s3, ok3 := p.Specialize([]core.Value{fig1Request(), fig1Request()}, nil, free)
	if ok3 || s3 != nil {
		t.Fatal("arity mismatch must decline to the interpreter")
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
