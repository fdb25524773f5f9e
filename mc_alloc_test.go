package energyclarity_test

import (
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/gpusim"
	"energyclarity/internal/microbench"
	"energyclarity/internal/mlservice"
	"energyclarity/internal/nn"
)

// mcShapes builds the serving benchmark's two mc_sample shapes (bench/
// stream.go): Fig. 1's EIL over a Go-native cnn_forward — interpreted, with
// a layer cache attached as the daemon attaches its own — and the compiled
// MoE stack, each evaluated at a seed and a parallelism.
func mcShapes(t testing.TB) map[string]func(seed int64, par int) error {
	t.Helper()
	spec := gpusim.RTX4090()
	coef := microbench.Coefficients{
		Device: spec.Name,
		Instr:  spec.NomInstrEnergy, L1: spec.NomL1Energy, L2: spec.NomL2Energy,
		VRAM: spec.NomVRAMEnergy, Static: spec.NomStaticPower,
	}
	cnn, err := nn.CNNEnergyInterface(nn.Fig1CNN(), spec, coef.HardwareInterface())
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := eil.Compile(mlservice.Fig1EIL, map[string]*core.Interface{"cnn_forward": cnn})
	if err != nil {
		t.Fatal(err)
	}
	moe, err := eil.Compile(nn.MoEEIL, nil)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 4096
	image := []core.Value{core.Record(map[string]core.Value{
		"image": core.Str("img"), "pixels": core.Num(320 * 240), "zeros": core.Num(9600),
	})}
	moeArgs := []core.Value{core.Int(17), core.Int(2), core.Int(4)}
	layer := core.NewLayerCache(0)
	return map[string]func(seed int64, par int) error{
		"hybrid": func(seed int64, par int) error {
			opts := core.MonteCarlo(samples, seed)
			opts.Layer, opts.Parallelism = layer, par
			_, err := hybrid["ml_webservice"].Eval("handle", image, opts)
			return err
		},
		"moe": func(seed int64, par int) error {
			opts := core.MonteCarlo(samples, seed)
			opts.Parallelism = par
			_, err := moe["moe_stack"].Eval("energy", moeArgs, opts)
			return err
		},
	}
}

// TestMonteCarloAllocsPerSample holds a Monte Carlo evaluation on a warm
// tree to its answer: on both shapes the serving benchmark's mc_sample
// workload sends, with a fresh seed per evaluation as there, it allocates
// the Dist and nothing else — the runner's group and helpers, the layer
// cache's descriptors and keys, and the interpreter's Calls and assignment
// maps are the tree version's or pooled. It counts the sequential path and
// the parallel one, whose helpers are goroutines started without a
// closure (AllocsPerRun runs at GOMAXPROCS 1, so they interleave).
func TestMonteCarloAllocsPerSample(t *testing.T) {
	const samples, perEval = 4096, 1
	for name, eval := range mcShapes(t) {
		for _, par := range []int{1, 4} {
			seed := int64(0)
			allocs := testing.AllocsPerRun(20, func() {
				seed++
				if err := eval(seed, par); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s at parallelism %d: %.0f allocs per %d-sample evaluation", name, par, allocs, samples)
			if allocs != perEval && !raceEnabled {
				t.Errorf("%s at parallelism %d: %.0f allocs per evaluation, want %d", name, par, allocs, perEval)
			}
		}
	}
}
