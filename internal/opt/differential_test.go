package opt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
)

// diffProgram is one generated interface and what its generator knows
// about method f's parameters: n meets only arithmetic (nData) unless the
// program compares an accumulated value n may have flowed into, k always
// reaches a loop bound, and an optional third parameter m goes wherever
// the dice say.
type diffProgram struct {
	src     string
	nParams int
	nData   bool
}

// randProgram generates a random but well-formed EIL interface: nested
// lets, conditionals on a boolean ECV and on a parameter, a loop bounded
// by a parameter, an inlined helper, and arithmetic over parameters, prior
// locals and a numeric ECV — some of it able to fail (a divisor the
// argument can zero, a builtin it can drive non-finite).
func randProgram(rng *rand.Rand) diffProgram {
	p := diffProgram{nParams: 2 + rng.Intn(2), nData: true}
	var b strings.Builder
	b.WriteString("interface r {\n")
	b.WriteString("  ecv flip: bernoulli(0.4)\n")
	b.WriteString("  ecv load: choice { 1: 0.5, 2: 0.25, 4: 0.25 }\n")
	b.WriteString("  func scale(x, y) {\n    if flip { return x * y + load }\n    return x - y\n  }\n")

	// data holds what only ever meets arithmetic; ctl what may steer.
	data := []string{"n", "load"}
	ctl := []string{"k"}
	params := "n, k"
	if p.nParams == 3 {
		params += ", m"
		if rng.Intn(2) == 0 {
			data = append(data, "m")
		} else {
			ctl = append(ctl, "m")
		}
	}
	expr := func(depth int) string { return randExpr(rng, data, depth) }

	fmt.Fprintf(&b, "  func f(%s) {\n", params)
	nLets := 1 + rng.Intn(3)
	var locals []string
	for i := 0; i < nLets; i++ {
		name := fmt.Sprintf("v%d", i)
		fmt.Fprintf(&b, "    let %s = %s\n", name, expr(2))
		data = append(data, name)
		locals = append(locals, name)
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "    if flip {\n      %s = %s\n    }\n", locals[rng.Intn(nLets)], expr(2))
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "    if %s > %d {\n      %s = %s\n    }\n",
			ctl[rng.Intn(len(ctl))], rng.Intn(4), locals[rng.Intn(nLets)], expr(2))
	}
	switch rng.Intn(4) {
	case 0: // n can zero the divisor
		fmt.Fprintf(&b, "    let q = %s / (n - 3)\n", expr(1))
		data = append(data, "q")
	case 1: // n can drive a builtin non-finite
		fmt.Fprintf(&b, "    let q = sqrt(n + 2) + log2(abs(n) + 1) + pow(n, 2)\n")
		data = append(data, "q")
	}
	b.WriteString("    let acc = 0\n")
	bound := "k"
	if rng.Intn(3) == 0 {
		bound = fmt.Sprintf("min(%s, %d)", bound, 1+rng.Intn(5))
	}
	fmt.Fprintf(&b, "    for i in 0 .. %s {\n      acc = acc + %s\n    }\n",
		bound, randExpr(rng, append(append([]string(nil), data...), "i"), 2))
	if rng.Intn(3) == 0 {
		// A comparison on an accumulated value: whatever flowed into acc —
		// n included — is control in this program.
		p.nData = false
		fmt.Fprintf(&b, "    if flip && acc > %d {\n      return %s\n    }\n", rng.Intn(10), expr(1))
	}
	fmt.Fprintf(&b, "    return acc + scale(%s, %s) + %s\n  }\n}\n", expr(1), expr(1), expr(2))
	p.src = b.String()
	return p
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
	switch rng.Intn(10) {
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
	case 6:
		return fmt.Sprintf("(-%s)", a)
	case 7:
		return fmt.Sprintf("(%s %% (abs(%s) + 1))", a, c)
	case 8:
		return fmt.Sprintf("floor(%s)", a)
	default:
		return fmt.Sprintf("(%s / (abs(%s) + 1))", a, c)
	}
}

// diffVectors is the argument sweep every generated program runs at.
// The first block varies only n — integers, fractions, negatives, both
// zeros, magnitudes that overflow, the value that zeroes the generated
// divisor, and a bool, a str and a record where a num is expected — and
// the second varies the control argument k as well.
func diffVectors(nParams int) [][]core.Value {
	rec := core.Record(map[string]core.Value{"a": core.Num(1)})
	ns := []core.Value{
		core.Num(7), core.Num(0), core.Num(math.Copysign(0, -1)), core.Num(3), core.Num(-4),
		core.Num(2.5), core.Num(-0.125), core.Num(1e300), core.Num(1e-300), core.Num(12345.678),
		core.Bool(true), core.Str("x"), rec,
	}
	var out [][]core.Value
	for _, n := range ns {
		out = append(out, []core.Value{n, core.Num(3)})
	}
	for _, k := range []core.Value{core.Num(0), core.Num(2.5), core.Num(-2), core.Num(6), core.Bool(false)} {
		out = append(out, []core.Value{core.Num(7), k}, []core.Value{core.Num(-1.75), k})
	}
	if nParams == 3 {
		ms := []core.Value{core.Num(2), core.Num(0.25), core.Num(-3), core.Num(5)}
		for i := range out {
			out[i] = append(out[i], ms[i%len(ms)])
		}
	}
	return out
}

// checkDifferential evaluates f(args) in all five modes, compiled at
// parallelism 1, 2 and 8, against the interpreter: Float64bits-equal
// Dists, equal error presence.
func checkDifferential(t *testing.T, iface *core.Interface, args []core.Value, seed int64, src string) {
	t.Helper()
	for _, opts := range allModeOpts(iface, seed) {
		interp := opts
		interp.Interpret = true
		interp.Parallelism = 1
		want, ierr := iface.Eval("f", args, interp)
		for _, par := range []int{1, 2, 8} {
			opts.Parallelism = par
			got, cerr := iface.Eval("f", args, opts)
			if (cerr != nil) != (ierr != nil) {
				t.Fatalf("seed %d args %v mode %v parallelism %d: compiled err %v vs interpreted err %v\n%s",
					seed, args, opts.Mode, par, cerr, ierr, src)
			}
			if cerr == nil && !distBitsEqual(got, want) {
				t.Fatalf("seed %d args %v mode %v parallelism %d: %v != %v\n%s",
					seed, args, opts.Mode, par, got, want, src)
			}
		}
	}
}

// compileDiffProgram builds the generated interface, checks the dependence
// pass against what the generator knows, and reports whether it found n
// to be data.
func compileDiffProgram(t *testing.T, p diffProgram, seed int64) (*core.Interface, bool) {
	t.Helper()
	iface, err := eil.CompileOne(p.src, nil)
	if err != nil {
		t.Fatalf("seed %d: generated invalid EIL: %v\n%s", seed, err, p.src)
	}
	prog, err := CompileMethod(iface, "f")
	if err != nil || prog == nil {
		t.Fatalf("seed %d: CompileMethod: prog=%v err=%v\n%s", seed, prog, err, p.src)
	}
	uses := prog.(*Program).params
	if p.nData && uses[0] != useData {
		t.Fatalf("seed %d: n meets only arithmetic but is classified %v\n%s", seed, uses[0], p.src)
	}
	if uses[1] == useData {
		t.Fatalf("seed %d: k reaches a loop bound but is classified data\n%s", seed, p.src)
	}
	return iface, uses[0] == useData
}

func TestRandomProgramsBitIdentity(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := randProgram(rand.New(rand.NewSource(seed)))
		iface, nData := compileDiffProgram(t, p, seed)
		// Every vector runs unpinned (four modes) and fully pinned (fixed):
		// two pinned shapes per distinct specialization key, and the key
		// holds n only when it is control or not a num.
		keys := map[string]bool{}
		before := core.ReadProgramStats().Specializations
		for _, args := range diffVectors(p.nParams) {
			checkDifferential(t, iface, args, seed, p.src)
			key := ""
			for i, a := range args {
				if i == 0 && nData && a.Kind() == core.KindNum {
					a = core.Nil()
				}
				key += a.Key() + "|"
			}
			keys[key] = true
		}
		emitted := core.ReadProgramStats().Specializations - before
		if max := uint64(2 * len(keys)); emitted > max || emitted == 0 {
			t.Fatalf("seed %d: emitted code %d times for %d distinct control tuples x 2 pinned shapes\n%s",
				seed, emitted, len(keys), p.src)
		}
	}
}

// FuzzCompileDifferential holds the compiler to the interpreter on
// generated programs at fuzzed arguments: the seed picks the program, n
// and k are its data and control arguments.
func FuzzCompileDifferential(f *testing.F) {
	for seed := int64(0); seed < 60; seed++ {
		f.Add(seed, 7.0, 3.0)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, k float64) {
		// A loop the fuzzer stretches to the fuel budget only measures how
		// fast the interpreter runs out; keep trip counts small.
		if !(math.Abs(k) <= 64) {
			k = 3
		}
		p := randProgram(rand.New(rand.NewSource(seed)))
		iface, nData := compileDiffProgram(t, p, seed)
		args := func(n float64) []core.Value {
			a := []core.Value{core.Num(n), core.Num(k), core.Num(2)}
			return a[:p.nParams]
		}
		checkDifferential(t, iface, args(n), seed, p.src)
		before := core.ReadProgramStats().Specializations
		checkDifferential(t, iface, args(n/3+1), seed, p.src)
		if emitted := core.ReadProgramStats().Specializations - before; nData && emitted != 0 {
			t.Fatalf("seed %d: a second data argument emitted code %d more times\n%s", seed, emitted, p.src)
		}
	})
}
