package experiments

import (
	"fmt"
	"math"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/energy"
	"energyclarity/internal/extract"
	"energyclarity/internal/microbench"
	"energyclarity/internal/nn"
	"energyclarity/internal/nvml"
	"energyclarity/internal/verify"
)

// --- E4: §4.1 workflow — contracts, envelopes, energy bugs, side channels ---

// E4Result summarizes the checking workflow on the GPT-2 stack.
type E4Result struct {
	// Refinement: calibrated interface vs a spec envelope.
	RefinementOK      bool
	RefinementChecked int
	// A deliberately under-budgeted spec must be rejected.
	TightSpecViolations int
	// Energy-bug testing: the healthy system passes, the injected retry
	// bug is flagged.
	HealthyFlagged bool
	BugFlagged     bool
	BugRelErr      float64
	// Constant-energy checking.
	ConstTimeSpread float64
	LeakySpread     float64
}

// Table renders E4.
func (r *E4Result) Table() *Table {
	boolCell := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	return &Table{
		ID:     "E4",
		Title:  "§4 workflows: refinement, energy-bug testing, constant-energy checking",
		Header: []string{"check", "result"},
		Rows: [][]string{
			{"impl ⊑ spec envelope (1.3× datasheet)", boolCell(r.RefinementOK) +
				fmt.Sprintf(" (%d inputs)", r.RefinementChecked)},
			{"impl ⊑ tight spec (0.8× datasheet)", fmt.Sprintf("%d violations flagged", r.TightSpecViolations)},
			{"healthy system flagged as buggy", boolCell(r.HealthyFlagged)},
			{"injected retry bug flagged", boolCell(r.BugFlagged) +
				fmt.Sprintf(" (divergence %s)", pct(r.BugRelErr))},
			{"constant-time crypto spread", pct(r.ConstTimeSpread)},
			{"leaky crypto spread", pct(r.LeakySpread)},
		},
	}
}

// E4Contracts runs the checking workflow.
func E4Contracts() (*E4Result, error) {
	rig, err := microbench.Rig4090()
	if err != nil {
		return nil, err
	}
	impl, err := nn.StackInterface(nn.GPT2Small(), rig.Device)
	if err != nil {
		return nil, err
	}
	res := &E4Result{}

	// Spec envelopes: datasheet-coefficient stacks scaled by a margin.
	envelope := func(margin float64) (*core.Interface, error) {
		c := rig.Coef
		c.Instr = energy.Joules(float64(c.Instr) * margin)
		c.L1 = energy.Joules(float64(c.L1) * margin)
		c.L2 = energy.Joules(float64(c.L2) * margin)
		c.VRAM = energy.Joules(float64(c.VRAM) * margin)
		c.Static = energy.Watts(float64(c.Static) * margin)
		return nn.StackInterface(nn.GPT2Small(), c.DeviceInterface(rig.Spec))
	}
	inputs := [][]core.Value{
		{core.Num(8), core.Num(10)},
		{core.Num(16), core.Num(50)},
		{core.Num(16), core.Num(200)},
		{core.Num(64), core.Num(100)},
	}
	spec, err := envelope(1.3)
	if err != nil {
		return nil, err
	}
	rep, err := verify.Refines(impl, spec, "generate", inputs, 0)
	if err != nil {
		return nil, err
	}
	res.RefinementOK = rep.OK()
	res.RefinementChecked = rep.Checked

	tight, err := envelope(0.8)
	if err != nil {
		return nil, err
	}
	rep, err = verify.Refines(impl, tight, "generate", inputs, 0)
	if err != nil {
		return nil, err
	}
	res.TightSpecViolations = len(rep.Violations)

	// Energy-bug testing on the real device.
	eng, err := nn.NewEngine(nn.GPT2Small(), rig.GPU)
	if err != nil {
		return nil, err
	}
	meter := nvml.NewMeter(rig.GPU)
	measureOnce := func(runs int) func() (energy.Joules, error) {
		return func() (energy.Joules, error) {
			rig.GPU.Idle(1.0)
			snap := meter.Snapshot()
			for i := 0; i < runs; i++ {
				if _, err := eng.Generate(16, 50); err != nil {
					return 0, err
				}
			}
			return meter.EnergySince(snap), nil
		}
	}
	predictOnce := func() (energy.Joules, error) {
		return impl.ExpectedJoules("generate", core.Num(16), core.Num(50))
	}
	bugRep, err := verify.FindEnergyBugs([]verify.Case{
		{Name: "healthy", Predicted: predictOnce, Measured: measureOnce(1)},
		{Name: "retry-bug", Predicted: predictOnce, Measured: measureOnce(2)},
	}, 0.10)
	if err != nil {
		return nil, err
	}
	for _, d := range bugRep.Divergences {
		switch d.Name {
		case "healthy":
			res.HealthyFlagged = true
		case "retry-bug":
			res.BugFlagged = true
			res.BugRelErr = d.RelErr
		}
	}

	// Constant-energy checks on crypto-like modules.
	konst := core.New("aes_ct").MustMethod(core.Method{
		Name: "encrypt", Params: []string{"secret_weight"},
		Body: func(c *core.Call) energy.Joules { return 3 * energy.Microjoule },
	})
	leaky := core.New("aes_leaky").MustMethod(core.Method{
		Name: "encrypt", Params: []string{"secret_weight"},
		Body: func(c *core.Call) energy.Joules {
			return energy.Joules(1+c.Num(0)) * energy.Microjoule
		},
	})
	secretInputs := [][]core.Value{{core.Num(0)}, {core.Num(64)}, {core.Num(128)}}
	cr, err := verify.ConstantEnergy(konst, "encrypt", secretInputs)
	if err != nil {
		return nil, err
	}
	res.ConstTimeSpread = cr.Spread
	lr, err := verify.ConstantEnergy(leaky, "encrypt", secretInputs)
	if err != nil {
		return nil, err
	}
	res.LeakySpread = lr.Spread
	return res, nil
}

// --- E5: §4.2 workflow — implementation → interface extraction ---

// E5Result summarizes the extraction-equivalence experiment.
type E5Result struct {
	Inputs       int
	StateConfigs int
	MaxDeviation float64 // max relative |extracted - implementation|
	ExtractedEIL string
}

// Table renders E5.
func (r *E5Result) Table() *Table {
	return &Table{
		ID:     "E5",
		Title:  "§4.2 extraction: derived interface vs implementation",
		Header: []string{"inputs probed", "state configs", "max deviation"},
		Rows: [][]string{
			{cell(r.Inputs), cell(r.StateConfigs), pct(r.MaxDeviation)},
		},
		Notes: []string{"extracted EIL is printed by `ebench -experiment e5 -v`"},
	}
}

// e5Module is the extraction target: a request handler with an input
// branch, a bounded batching loop, and a hidden connection-pool state.
func e5Module() *extract.Module {
	return &extract.Module{
		Name:   "req_handler",
		Params: []string{"req"},
		Body: []extract.Instr{
			extract.Let{Name: "n", Val: extract.Field(extract.Arg("req"), "size")},
			extract.StateIf{
				State: "pool_warm", PTrue: 0.6, Doc: "connection pool warm",
				Then: []extract.Instr{
					extract.Charge{Binding: "hw", Method: "io", Args: []*extract.Expr{extract.Num(128)}},
				},
				Else: []extract.Instr{
					extract.Charge{Binding: "hw", Method: "io", Args: []*extract.Expr{extract.Num(8192)}},
				},
			},
			extract.If{
				Cond: extract.Cond{Op: ">", A: extract.Arg("n"), B: extract.Num(4096)},
				Then: []extract.Instr{
					extract.Loop{
						Var: "i", From: extract.Num(0),
						To: extract.Div(extract.Arg("n"), extract.Num(4096)),
						Body: []extract.Instr{
							extract.Charge{Binding: "hw", Method: "op",
								Args: []*extract.Expr{extract.Num(4096)}},
						},
					},
				},
				Else: []extract.Instr{
					extract.Charge{Binding: "hw", Method: "op",
						Args: []*extract.Expr{extract.Arg("n")}},
				},
			},
		},
	}
}

func e5Hardware() *core.Interface {
	return core.New("host_hw").
		MustMethod(core.Method{Name: "op", Params: []string{"n"},
			Body: func(c *core.Call) energy.Joules {
				return energy.Joules(1.7*c.Num(0)) * energy.Microjoule
			}}).
		MustMethod(core.Method{Name: "io", Params: []string{"bytes"},
			Body: func(c *core.Call) energy.Joules {
				return energy.Joules(0.4*c.Num(0)) * energy.Microjoule
			}})
}

// E5Extraction extracts the module's interface and verifies it against the
// implementation on a grid of inputs and all hidden-state assignments.
func E5Extraction() (*E5Result, error) {
	m := e5Module()
	hw := e5Hardware()
	bindings := map[string]*core.Interface{"host_hw": hw}
	src, err := extract.Extract(m, map[string]string{"hw": "host_hw"})
	if err != nil {
		return nil, err
	}
	compiled, err := eil.Compile(src, bindings)
	if err != nil {
		return nil, err
	}
	iface := compiled["req_handler"]
	runBindings := map[string]*core.Interface{"hw": hw}

	res := &E5Result{ExtractedEIL: src}
	sizes := []float64{0, 1, 100, 4095, 4096, 4097, 20000, 123456}
	for _, size := range sizes {
		input := core.Record(map[string]core.Value{"size": core.Num(size)})
		for _, warm := range []bool{true, false} {
			truth, err := extract.Run(m, runBindings, []core.Value{input},
				map[string]bool{"pool_warm": warm})
			if err != nil {
				return nil, err
			}
			d, err := iface.Eval("run", []core.Value{input},
				core.FixedAssignment(map[string]core.Value{"pool_warm": core.Bool(warm)}))
			if err != nil {
				return nil, err
			}
			res.Inputs++
			if truth != 0 {
				dev := math.Abs(d.Mean()-truth) / math.Abs(truth)
				if dev > res.MaxDeviation {
					res.MaxDeviation = dev
				}
			}
		}
	}
	res.Inputs = len(sizes)
	res.StateConfigs = 2
	return res, nil
}
