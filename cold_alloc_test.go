package energyclarity_test

import (
	"runtime"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/nn"
)

// coldShapes builds the five compiled methods the serving benchmark's
// cold_exact and batch_sched workloads ask unique questions of (bench/
// stream.go), each as a function of the first argument those workloads
// vary.
func coldShapes(t testing.TB) map[string]func(arg0 float64) error {
	t.Helper()
	gpt2, moe := coldStacks(t)
	return map[string]func(float64) error{
		"gpt2_stack.generate":     coldShape(gpt2, "generate", core.Expected(), core.Int(6)),
		"gpt2_stack.layer_decode": coldShape(gpt2, "layer_decode", core.Expected()),
		"gpt2_stack.decode_token": coldShape(gpt2, "decode_token", core.Expected()),
		"moe_stack.energy":        coldShape(moe, "energy", core.Expected(), core.Int(2), core.Int(4)),
		"moe_stack.latency":       coldShape(moe, "latency", core.Expected(), core.Int(2), core.Int(4)),
	}
}

func coldStacks(t testing.TB) (gpt2, moe *core.Interface) {
	t.Helper()
	gpt2, err := nn.GPT2EILStack()
	if err != nil {
		t.Fatal(err)
	}
	moe, err = nn.MoEEILStack()
	if err != nil {
		t.Fatal(err)
	}
	return gpt2, moe
}

// coldShape evaluates iface.method under opts with arg0 first and rest
// after it.
func coldShape(iface *core.Interface, method string, opts core.EvalOptions, rest ...core.Value) func(float64) error {
	args := append([]core.Value{core.Nil()}, rest...)
	return func(arg0 float64) error {
		args[0] = core.Num(arg0)
		_, err := iface.Eval(method, args, opts)
		return err
	}
}

// TestColdEvalAllocs holds ROADMAP item 2: on a warm tree, a question
// about an input never seen before binds the cached program instead of
// specializing a new one. Per served shape, unique-argument evals emit no
// code after the first and leave nothing behind — the heap a GC settles to
// does not grow with the number of questions asked — and allocate only
// their answer: the ECV plan is the tree version's, the observed layout
// the specialization's, and every scratch buffer goes back to its pool.
// Shapes the served five do not cover are counted beside them: the worst
// and best cases of both MoE methods, which scan the joint space for its
// bound instead of building its distribution (1: the Point); a compiled
// Monte Carlo eval, which also draws and counts; and a pinned one, which
// splits the plan for itself.
func TestColdEvalAllocs(t *testing.T) {
	const evals, retained = 1000, 64 << 10
	type shape struct {
		eval    func(float64) error
		perEval float64
	}
	shapes := map[string]shape{}
	for name, eval := range coldShapes(t) {
		shapes[name] = shape{eval, 1}
	}
	_, moe := coldStacks(t)
	pinned := core.Expected()
	pinned.Fixed = map[string]core.Value{"dev.thermal_throttle": core.Bool(false), "kv_spill": core.Bool(true)}
	// AllocsPerRun runs at GOMAXPROCS 1, so the default parallelism counts
	// the sequential path on any machine.
	for _, method := range []string{"energy", "latency"} {
		for _, opts := range []core.EvalOptions{core.WorstCase(), core.BestCase()} {
			name := "moe_stack." + method + " " + opts.Mode.String()
			shapes[name] = shape{coldShape(moe, method, opts, core.Int(2), core.Int(4)), 1}
		}
	}
	shapes["moe_stack.energy monte-carlo"] = shape{coldShape(moe, "energy", core.MonteCarlo(4096, 7), core.Int(2), core.Int(4)), 12}
	shapes["moe_stack.energy pinned"] = shape{coldShape(moe, "energy", pinned, core.Int(2), core.Int(4)), 24}
	for name, s := range shapes {
		asked := 0.0
		ask := func() {
			asked++
			if err := s.eval(17 + asked/4096); err != nil {
				t.Fatal(err)
			}
		}
		ask() // compiles the method and emits its one specialization
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		emitted := core.ReadProgramStats().Specializations
		allocs := testing.AllocsPerRun(evals, ask)
		emitted = core.ReadProgramStats().Specializations - emitted
		runtime.GC()
		runtime.ReadMemStats(&after)
		grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("%s: %.0f allocs per unique-argument eval, %d emissions, heap %+d B after %d evals",
			name, allocs, emitted, grown, evals)
		if allocs > s.perEval && !raceEnabled {
			t.Errorf("%s: %.0f allocs per eval, want <= %v", name, allocs, s.perEval)
		}
		if emitted != 0 {
			t.Errorf("%s: %d unique data arguments emitted code %d times, want 0", name, evals, emitted)
		}
		if grown > retained {
			t.Errorf("%s: heap grew %d B over %d evals, want <= %d", name, grown, evals, retained)
		}
	}
}
