package energyclarity_test

// Microbenchmarks of the evaluation engine. BenchmarkEvalParallel is the
// sampler's scaling across worker counts; BenchmarkEvalCompiled and
// BenchmarkEvalInterpreted are E15's table. make bench-smoke runs each
// once. The serving paths and each link of an eval request are measured
// by bench/run.sh, and each experiment by its shape test.

import (
	"testing"

	"energyclarity"
	"energyclarity/internal/core"
	"energyclarity/internal/nn"
)

// BenchmarkEvalParallel measures Monte Carlo evaluation throughput at
// fixed parallelism levels (1, 4, and one worker per CPU), reporting
// samples/sec so runs on different machines compare directly. On a
// machine with ≥4 CPUs the pmax case should approach a linear multiple
// of p1; the sharded sampler makes the resulting Dist bit-identical at
// every level.
func BenchmarkEvalParallel(b *testing.B) {
	const samples = 4096
	iface := fig1Bench(b)
	img := core.Record(map[string]core.Value{"pixels": core.Num(1e6), "zeros": core.Num(2e5)})
	args := []core.Value{img}
	for _, pc := range []struct {
		name string
		par  int
	}{
		{"p1", 1},
		{"p4", 4},
		{"pmax", 0}, // 0 = one worker per available CPU
	} {
		b.Run(pc.name, func(b *testing.B) {
			opts := core.MonteCarlo(samples, 7)
			opts.Parallelism = pc.par
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := iface.Eval("handle", args, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(samples)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// --- compiled-vs-interpreted evaluation benchmarks (E15) ---

// evalBenchModes is the mode matrix both E15 benchmarks sweep.
func evalBenchModes() []struct {
	name string
	opts core.EvalOptions
} {
	fixed := map[string]core.Value{
		"kv_spill": core.Bool(false), "hw.thermal_throttle": core.Bool(false),
	}
	return []struct {
		name string
		opts core.EvalOptions
	}{
		{"expected", core.Expected()},
		{"worst", core.WorstCase()},
		{"best", core.BestCase()},
		{"fixed", core.FixedAssignment(fixed)},
		// 512 samples (not the 2048 default) keeps the interpreted
		// baseline cheap enough for make bench-smoke in CI.
		{"mc", core.MonteCarlo(512, 7)},
	}
}

func gpt2EILBench(b *testing.B) *core.Interface {
	b.Helper()
	stack, err := nn.GPT2EILStack()
	if err != nil {
		b.Fatal(err)
	}
	return stack
}

// benchEvalStack runs the full GPT-2 EIL stack through every mode: cold,
// warm and unique. Cold rebuilds the interface tree each iteration (Rebind
// clones with fresh versions and an empty program cache), so the compiled
// path pays lowering, folding, specialization, and emission inside the
// measurement; warm reuses the tree and the arguments; unique reuses the
// tree and asks about a prompt length it has never seen — what a resource
// manager does, and what the serving benchmark's cold_exact sends. On a
// warm tree both bind the cached program, so they differ only in what the
// argument costs the VM. The interpreter keeps no per-tree state, so its
// numbers only differ by the Rebind clone itself.
func benchEvalStack(b *testing.B, interpret bool) {
	stack := gpt2EILBench(b)
	hw := stack.Binding("hw")
	args := []core.Value{core.Num(64), core.Num(8)}
	asked := 0 // persists across the harness's calibration reruns
	for _, m := range evalBenchModes() {
		opts := m.opts
		opts.Interpret = interpret
		b.Run("cold/"+m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fresh, err := stack.Rebind("hw", hw)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fresh.Eval("generate", args, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("warm/"+m.name, func(b *testing.B) {
			if _, err := stack.Eval("generate", args, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stack.Eval("generate", args, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("unique/"+m.name, func(b *testing.B) {
			if _, err := stack.Eval("generate", args, opts); err != nil {
				b.Fatal(err)
			}
			fresh := []core.Value{args[0], args[1]}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				asked++
				fresh[0] = core.Num(64 + float64(asked)/(1<<24))
				if _, err := stack.Eval("generate", fresh, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalCompiled measures full-stack GPT-2 EIL evaluation through
// the optimizing compiler (internal/opt): methods lower to flat
// instruction programs, partial evaluation folds the architecture
// constants, and per-assignment runs replay only the ECV-dependent
// suffix. Compare against BenchmarkEvalInterpreted; E15 tabulates the
// ratio (the tentpole target is ≥10x cold).
func BenchmarkEvalCompiled(b *testing.B) { benchEvalStack(b, false) }

// BenchmarkEvalInterpreted measures the identical evaluations forced
// through the tree-walking interpreter (EvalOptions.Interpret), the
// reference semantics the compiled path must match bit for bit.
func BenchmarkEvalInterpreted(b *testing.B) { benchEvalStack(b, true) }

// fig1Bench builds the Fig. 1 web service interface natively in Go.
func fig1Bench(b *testing.B) *core.Interface {
	b.Helper()
	mJ := func(x float64) energyclarity.Joules {
		return energyclarity.Joules(x) * energyclarity.Millijoule
	}
	accel := core.New("accel_hw").
		MustMethod(core.Method{Name: "conv2d", Params: []string{"n"},
			Body: func(c *core.Call) energyclarity.Joules { return mJ(0.004 * c.Num(0)) }}).
		MustMethod(core.Method{Name: "relu", Params: []string{"n"},
			Body: func(c *core.Call) energyclarity.Joules { return mJ(0.001 * c.Num(0)) }}).
		MustMethod(core.Method{Name: "mlp", Params: []string{"n"},
			Body: func(c *core.Call) energyclarity.Joules { return mJ(0.01 * c.Num(0)) }})
	svc := core.New("ml_webservice").
		MustECV(core.BoolECV("request_hit", 0.3, "")).
		MustECV(core.BoolECV("local_cache_hit", 0.8, "")).
		MustBind("accel", accel).
		MustMethod(core.Method{Name: "handle", Params: []string{"request"},
			Body: func(c *core.Call) energyclarity.Joules {
				if c.ECVBool("request_hit") {
					if c.ECVBool("local_cache_hit") {
						return mJ(5 * 1024)
					}
					return mJ(100 * 1024)
				}
				return 8*c.E("accel", "conv2d", core.Num(c.FieldNum(0, "pixels")-c.FieldNum(0, "zeros"))) +
					8*c.E("accel", "relu", core.Num(256)) +
					16*c.E("accel", "mlp", core.Num(256))
			}})
	return svc
}
