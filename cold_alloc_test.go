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
	gpt2, err := nn.GPT2EILStack()
	if err != nil {
		t.Fatal(err)
	}
	moe, err := nn.MoEEILStack()
	if err != nil {
		t.Fatal(err)
	}
	shape := func(iface *core.Interface, method string, rest ...core.Value) func(float64) error {
		args := append([]core.Value{core.Nil()}, rest...)
		return func(arg0 float64) error {
			args[0] = core.Num(arg0)
			_, err := iface.Eval(method, args, core.Expected())
			return err
		}
	}
	return map[string]func(float64) error{
		"gpt2_stack.generate":     shape(gpt2, "generate", core.Int(6)),
		"gpt2_stack.layer_decode": shape(gpt2, "layer_decode"),
		"gpt2_stack.decode_token": shape(gpt2, "decode_token"),
		"moe_stack.energy":        shape(moe, "energy", core.Int(2), core.Int(4)),
		"moe_stack.latency":       shape(moe, "latency", core.Int(2), core.Int(4)),
	}
}

// TestColdEvalAllocs holds ROADMAP item 2: on a warm tree, a question
// about an input never seen before binds the cached program instead of
// specializing a new one. Per served shape, unique-argument evals cost at
// most 64 allocations each, emit no code after the first, and leave
// nothing behind — the heap a GC settles to does not grow with the number
// of questions asked.
func TestColdEvalAllocs(t *testing.T) {
	const evals, perEval, retained = 1000, 64, 64 << 10
	for name, eval := range coldShapes(t) {
		asked := 0.0
		ask := func() {
			asked++
			if err := eval(17 + asked/4096); err != nil {
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
		if allocs > perEval {
			t.Errorf("%s: %.0f allocs per eval, want <= %d", name, allocs, perEval)
		}
		if emitted != 0 {
			t.Errorf("%s: %d unique data arguments emitted code %d times, want 0", name, evals, emitted)
		}
		if grown > retained {
			t.Errorf("%s: heap grew %d B over %d evals, want <= %d", name, grown, evals, retained)
		}
	}
}
