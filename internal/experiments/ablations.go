package experiments

import (
	"math"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/energy"
	"energyclarity/internal/gpusim"
	"energyclarity/internal/microbench"
	"energyclarity/internal/nn"
)

// Ablations for the design decisions called out in DESIGN.md §4.

// --- A1: exact ECV enumeration vs Monte Carlo estimation ---

// A1Result compares the two evaluation strategies on the Fig. 1 interface.
type A1Result struct {
	ExactMean   float64
	MCMean      float64
	RelDiff     float64
	ExactPoints int // support size of the exact distribution
	Samples     int
}

// Table renders A1.
func (r *A1Result) Table() *Table {
	return &Table{
		ID:     "A1",
		Title:  "Ablation: exact ECV enumeration vs Monte Carlo",
		Header: []string{"exact mean", "MC mean", "relative difference", "exact support", "samples"},
		Rows: [][]string{{
			f3(r.ExactMean), f3(r.MCMean), pct(r.RelDiff), cell(r.ExactPoints), cell(r.Samples),
		}},
		Notes: []string{
			"exact enumeration is preferred while the joint ECV space is small; MC is the fallback (core.EvalOptions.EnumLimit)",
		},
	}
}

// A1ExactVsMonteCarlo evaluates the same interface both ways.
func A1ExactVsMonteCarlo() (*A1Result, error) {
	iface, err := fig1NativeInterface(0.3, 0.8)
	if err != nil {
		return nil, err
	}
	img := core.Record(map[string]core.Value{"pixels": core.Num(1e6), "zeros": core.Num(2e5)})
	exact, err := iface.Eval("handle", []core.Value{img}, core.Expected())
	if err != nil {
		return nil, err
	}
	const samples = 20000
	mc, err := iface.Eval("handle", []core.Value{img}, core.MonteCarlo(samples, 7))
	if err != nil {
		return nil, err
	}
	return &A1Result{
		ExactMean:   exact.Mean(),
		MCMean:      mc.Mean(),
		RelDiff:     math.Abs(exact.Mean()-mc.Mean()) / exact.Mean(),
		ExactPoints: exact.Len(),
		Samples:     samples,
	}, nil
}

// --- A2: EIL-interpreted vs Go-native interfaces ---

// A2Result checks the two authoring styles agree exactly.
type A2Result struct {
	NativeMean float64
	EILMean    float64
	RelDiff    float64
}

// Table renders A2.
func (r *A2Result) Table() *Table {
	return &Table{
		ID:     "A2",
		Title:  "Ablation: EIL-interpreted vs Go-native interface (same program)",
		Header: []string{"native mean", "EIL mean", "relative difference"},
		Rows:   [][]string{{f3(r.NativeMean), f3(r.EILMean), pct(r.RelDiff)}},
		Notes: []string{
			"identical semantics by construction; interpreter vs compiler speed is E15's",
		},
	}
}

// fig1EILSource is Fig. 1 in EIL with explicit constants matching
// fig1NativeInterface.
const fig1EILSource = `
interface accel_hw {
  func conv2d(n) { return 0.004mJ * n }
  func relu(n)   { return 0.001mJ * n }
  func mlp(n)    { return 0.01mJ * n }
}
interface ml_webservice {
  ecv request_hit: bernoulli(0.3) "request found in cache"
  ecv local_cache_hit: bernoulli(0.8) "cache hit in current node"
  uses accel: accel_hw

  func handle(request) {
    let max_response_len = 1024
    if request_hit {
      return cache_lookup(max_response_len)
    } else {
      return cnn_forward(request)
    }
  }
  func cache_lookup(response_len) {
    if local_cache_hit { return 5mJ * response_len }
    return 100mJ * response_len
  }
  func cnn_forward(image) {
    let n_embedding = 256
    return 8 * accel.conv2d(image.pixels - image.zeros)
         + 8 * accel.relu(n_embedding)
         + 16 * accel.mlp(n_embedding)
  }
}
`

// fig1NativeInterface is the same program hand-built with the Go API.
func fig1NativeInterface(pHit, pLocal float64) (*core.Interface, error) {
	mJ := func(x float64) energy.Joules { return energy.Joules(x) * energy.Millijoule }
	accel := core.New("accel_hw").
		MustMethod(core.Method{Name: "conv2d", Params: []string{"n"},
			Body: func(c *core.Call) energy.Joules { return mJ(0.004 * c.Num(0)) }}).
		MustMethod(core.Method{Name: "relu", Params: []string{"n"},
			Body: func(c *core.Call) energy.Joules { return mJ(0.001 * c.Num(0)) }}).
		MustMethod(core.Method{Name: "mlp", Params: []string{"n"},
			Body: func(c *core.Call) energy.Joules { return mJ(0.01 * c.Num(0)) }})
	svc := core.New("ml_webservice").
		MustECV(core.BoolECV("request_hit", pHit, "request found in cache")).
		MustECV(core.BoolECV("local_cache_hit", pLocal, "cache hit in current node"))
	if err := svc.Bind("accel", accel); err != nil {
		return nil, err
	}
	svc.MustMethod(core.Method{Name: "handle", Params: []string{"request"}, Body: func(c *core.Call) energy.Joules {
		if c.ECVBool("request_hit") {
			return c.Self("cache_lookup", core.Num(1024))
		}
		return c.Self("cnn_forward", c.Arg(0))
	}})
	svc.MustMethod(core.Method{Name: "cache_lookup", Params: []string{"response_len"}, Body: func(c *core.Call) energy.Joules {
		if c.ECVBool("local_cache_hit") {
			return mJ(5 * c.Num(0))
		}
		return mJ(100 * c.Num(0))
	}})
	svc.MustMethod(core.Method{Name: "cnn_forward", Params: []string{"image"}, Body: func(c *core.Call) energy.Joules {
		const nEmbedding = 256
		return 8*c.E("accel", "conv2d", core.Num(c.FieldNum(0, "pixels")-c.FieldNum(0, "zeros"))) +
			8*c.E("accel", "relu", core.Num(nEmbedding)) +
			16*c.E("accel", "mlp", core.Num(nEmbedding))
	}})
	return svc, nil
}

// A2EILVsNative compiles the EIL program and compares it with the
// Go-native construction on the same input.
func A2EILVsNative() (*A2Result, error) {
	native, err := fig1NativeInterface(0.3, 0.8)
	if err != nil {
		return nil, err
	}
	compiled, err := eil.Compile(fig1EILSource, nil)
	if err != nil {
		return nil, err
	}
	eilIface := compiled["ml_webservice"]
	img := core.Record(map[string]core.Value{"pixels": core.Num(1e6), "zeros": core.Num(2e5)})
	a, err := native.Eval("handle", []core.Value{img}, core.Expected())
	if err != nil {
		return nil, err
	}
	b, err := eilIface.Eval("handle", []core.Value{img}, core.Expected())
	if err != nil {
		return nil, err
	}
	rel := 0.0
	if a.Mean() != 0 {
		rel = math.Abs(a.Mean()-b.Mean()) / a.Mean()
	}
	return &A2Result{NativeMean: a.Mean(), EILMean: b.Mean(), RelDiff: rel}, nil
}

// --- A3: layered composition vs monolithic (flattened) interface ---

// A3Result checks composition introduces no accuracy loss.
type A3Result struct {
	LayeredMean    float64
	MonolithicMean float64
	RelDiff        float64
}

// Table renders A3.
func (r *A3Result) Table() *Table {
	return &Table{
		ID:     "A3",
		Title:  "Ablation: layered (Fig. 2) vs monolithic flattened interface",
		Header: []string{"layered mean", "monolithic mean", "relative difference"},
		Rows:   [][]string{{f3(r.LayeredMean), f3(r.MonolithicMean), pct(r.RelDiff)}},
		Notes: []string{
			"composition is exact: flattening an interface stack changes nothing but loses rebindability",
		},
	}
}

// A3LayeredVsMonolithic compares the layered GPT-2 stack against a
// single-method interface computing the same total inline.
func A3LayeredVsMonolithic() (*A3Result, error) {
	rig, err := microbench.Rig4090()
	if err != nil {
		return nil, err
	}
	layered, err := nn.StackInterface(nn.GPT2Small(), rig.Device)
	if err != nil {
		return nil, err
	}
	cfg := nn.GPT2Small()
	spec := rig.Spec
	coef := rig.Coef
	mono := core.New("gpt2_monolithic").MustMethod(core.Method{
		Name: "generate", Params: []string{"prompt_len", "new_tokens"},
		Body: func(c *core.Call) energy.Joules {
			promptLen := int(c.Num(0))
			newTokens := int(c.Num(1))
			var total energy.Joules
			for _, k := range cfg.GenerateKernels(promptLen, newTokens) {
				tr := spec.SpecTraffic(k)
				dur := spec.SpecDuration(k, tr)
				total += energy.Joules(k.Instructions)*coef.Instr +
					energy.Joules(tr.L1Wavefronts)*coef.L1 +
					energy.Joules(tr.L2Sectors)*coef.L2 +
					energy.Joules(tr.VRAMSectors)*coef.VRAM +
					coef.Static.OverSeconds(dur)
			}
			return total
		},
	})
	args := []core.Value{core.Num(16), core.Num(100)}
	a, err := layered.ExpectedJoules("generate", args...)
	if err != nil {
		return nil, err
	}
	b, err := mono.ExpectedJoules("generate", args...)
	if err != nil {
		return nil, err
	}
	rel := 0.0
	if a != 0 {
		rel = math.Abs(float64(a-b)) / float64(a)
	}
	return &A3Result{LayeredMean: float64(a), MonolithicMean: float64(b), RelDiff: rel}, nil
}

// Spec re-exported for benchmarks needing kernels without a rig.
var _ = gpusim.RTX4090
