package nn

import (
	"fmt"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
	"energyclarity/internal/gpusim"
)

// EnergyInterface builds the transformer's energy interface for a device:
// the §5 artifact. It computes, from the model architecture and the
// device's *datasheet* (never the device's hidden truth), the counts of the
// five hardware metrics each kernel incurs — static time, VRAM sectors, L2
// sectors, L1 wavefronts, instruction executions — and composes them
// through the calibrated hardware interface hw (bound as "hw").
//
// Methods:
//
//	generate(prompt_len, new_tokens) — a full §5-style inference
//	prefill(prompt_len)              — prompt processing only
//	decode_token(pos)                — one autoregressive step
//
// The composition is the Fig. 2 structure: swapping the device means
// rebinding "hw" (and constructing against the new Spec); the model layer
// is untouched.
func EnergyInterface(cfg TransformerConfig, spec gpusim.Spec, hw *core.Interface) (*core.Interface, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hw == nil {
		return nil, fmt.Errorf("nn: nil hardware interface")
	}
	for _, m := range []string{"kernel"} {
		if hw.Method(m) == nil {
			return nil, fmt.Errorf("nn: hardware interface %s lacks method %q", hw.Name(), m)
		}
	}

	iface := core.New(cfg.Name + "_on_" + spec.Name)
	iface.SetDoc(fmt.Sprintf("energy interface for %s inference on %s", cfg.Name, spec.Name))
	if err := iface.Bind("hw", hw); err != nil {
		return nil, err
	}

	// Each kernel is priced through the hardware layer using datasheet
	// traffic and timing.
	transformerMethods(iface, cfg, func(c *core.Call, k gpusim.Kernel) energy.Joules {
		tr := spec.SpecTraffic(k)
		dur := spec.SpecDuration(k, tr)
		return c.E("hw", "kernel",
			core.Num(k.Instructions),
			core.Num(tr.L1Wavefronts),
			core.Num(tr.L2Sectors),
			core.Num(tr.VRAMSectors),
			core.Num(dur),
		)
	})
	return iface, nil
}

// StackInterface builds the device-agnostic model-layer interface: it
// describes every kernel only by its logical (shape-derived) properties
// and delegates traffic, timing, and coefficients to the bound device
// interface's kernel_logical method (see microbench.DeviceInterface).
//
// Because nothing device-specific lives in this layer, retargeting the
// model to another GPU is exactly one Rebind("hw", otherDevice) — the
// paper's Fig. 2 layered-view advantage, demonstrated by experiment F2.
func StackInterface(cfg TransformerConfig, hw *core.Interface) (*core.Interface, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hw == nil || hw.Method("kernel_logical") == nil {
		return nil, fmt.Errorf("nn: device interface missing or lacks 'kernel_logical'")
	}
	iface := core.New(cfg.Name + "_stack")
	iface.SetDoc(fmt.Sprintf("device-agnostic energy interface for %s inference", cfg.Name))
	if err := iface.Bind("hw", hw); err != nil {
		return nil, err
	}

	transformerMethods(iface, cfg, func(c *core.Call, k gpusim.Kernel) energy.Joules {
		return c.E("hw", "kernel_logical",
			core.Num(k.Instructions),
			core.Num(k.L1Accesses),
			core.Num(k.WorkingSet),
			core.Num(k.Reuse),
		)
	})
	return iface, nil
}

// transformerMethods declares the transformer's prefill, decode_token and
// generate methods on iface. kernel prices one kernel: the only thing the
// device-specific and the device-agnostic interface do differently.
func transformerMethods(iface *core.Interface, cfg TransformerConfig, kernel func(*core.Call, gpusim.Kernel) energy.Joules) {
	kernelsEnergy := func(c *core.Call, ks []gpusim.Kernel) energy.Joules {
		var total energy.Joules
		for _, k := range ks {
			total += kernel(c, k)
		}
		return total
	}

	iface.MustMethod(core.Method{
		Name: "prefill", Params: []string{"prompt_len"},
		Doc: "energy to process a prompt and build the KV cache",
		Body: func(c *core.Call) energy.Joules {
			return kernelsEnergy(c, cfg.PrefillKernels(intArg(c, 0, "prompt_len")))
		},
	})
	iface.MustMethod(core.Method{
		Name: "decode_token", Params: []string{"pos"},
		Doc: "energy of one autoregressive step with pos tokens of KV cache",
		Body: func(c *core.Call) energy.Joules {
			return kernelsEnergy(c, cfg.DecodeKernels(intArg(c, 0, "pos")))
		},
	})
	iface.MustMethod(core.Method{
		Name: "generate", Params: []string{"prompt_len", "new_tokens"},
		Doc: "energy of a full inference: prefill plus new_tokens decode steps",
		Body: func(c *core.Call) energy.Joules {
			promptLen := intArg(c, 0, "prompt_len")
			newTokens := intArg(c, 1, "new_tokens")
			if promptLen < 1 {
				core.Fail(fmt.Errorf("nn: prompt_len must be >= 1"))
			}
			total := c.Self("prefill", core.Num(float64(promptLen)))
			for t := 0; t < newTokens; t++ {
				total += c.Self("decode_token", core.Num(float64(promptLen+t)))
			}
			return total
		},
	})
}

// intArg reads argument i as a non-negative integer, failing the call
// otherwise.
func intArg(c *core.Call, i int, name string) int {
	n := c.Num(i)
	if n < 0 || n != float64(int(n)) {
		core.Fail(fmt.Errorf("nn: %s must be a non-negative integer, got %v", name, n))
	}
	return int(n)
}
