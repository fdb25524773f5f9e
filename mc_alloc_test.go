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
// MoE stack.
func mcShapes(t testing.TB) map[string]func(seed int64) error {
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
	image := core.Record(map[string]core.Value{
		"image": core.Str("img"), "pixels": core.Num(320 * 240), "zeros": core.Num(9600),
	})
	layer := core.NewLayerCache(0)
	return map[string]func(seed int64) error{
		"hybrid": func(seed int64) error {
			opts := core.MonteCarlo(samples, seed)
			opts.Layer = layer
			_, err := hybrid["ml_webservice"].Eval("handle", []core.Value{image}, opts)
			return err
		},
		"moe": func(seed int64) error {
			_, err := moe["moe_stack"].Eval("energy", []core.Value{core.Int(17), core.Int(2), core.Int(4)}, core.MonteCarlo(samples, seed))
			return err
		},
	}
}

// TestMonteCarloAllocsPerSample holds Monte Carlo to ROADMAP item 2's
// target of at most 0.1 allocations per sample, on both shapes the serving
// benchmark's mc_sample workload sends, with a fresh seed per evaluation
// as there.
func TestMonteCarloAllocsPerSample(t *testing.T) {
	const samples, perSample = 4096, 0.1
	for name, eval := range mcShapes(t) {
		seed := int64(0)
		allocs := testing.AllocsPerRun(20, func() {
			seed++
			if err := eval(seed); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per %d-sample evaluation", name, allocs, samples)
		if allocs > perSample*samples {
			t.Errorf("%s: %.0f allocs per evaluation = %.3f per sample, want <= %v",
				name, allocs, allocs/samples, perSample)
		}
	}
}
