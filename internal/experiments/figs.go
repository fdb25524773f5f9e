package experiments

import (
	"fmt"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
	"energyclarity/internal/microbench"
	"energyclarity/internal/mlservice"
	"energyclarity/internal/nn"
	"energyclarity/internal/nvml"
	"energyclarity/internal/rapl"
	"energyclarity/internal/trace"
)

// --- F1: Fig. 1's web-service interface, prediction vs measurement ---

// Fig1Capacities is the local-cache capacity sweep.
var Fig1Capacities = []int{16, 64, 256, 512}

// Fig1Point is one capacity's result.
type Fig1Point struct {
	LocalCapacity int
	PRequestHit   float64
	PLocalHit     float64
	Predicted     energy.Joules // per request, expected
	Measured      energy.Joules // per request, averaged over the window
	RelErr        float64
}

// Fig1Result is the capacity sweep.
type Fig1Result struct {
	Points []Fig1Point
}

// Table renders the sweep.
func (r *Fig1Result) Table() *Table {
	t := &Table{
		ID:     "F1",
		Title:  "Fig. 1 web-service interface: predicted vs measured energy per request",
		Header: []string{"local cache", "P(request_hit)", "P(local|hit)", "predicted/req", "measured/req", "error"},
		Notes: []string{
			"ECVs estimated by the resource manager from a warmup window (Zipf 1.25 over 2048 images)",
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			cell(p.LocalCapacity), f3(p.PRequestHit), f3(p.PLocalHit),
			p.Predicted.String(), p.Measured.String(), pct(p.RelErr),
		})
	}
	return t
}

// Fig1 parameters.
const (
	fig1RemoteCapacity = 512
	fig1Universe       = 2048
	fig1ZipfSkew       = 1.25
	fig1Warmup         = 4000
	fig1Estimate       = 2000
	fig1Window         = 3000
	fig1Pixels         = 640 * 480
	fig1Zeros          = 3e4
)

// Fig1WebService runs the F1 experiment: for each local-cache capacity,
// warm the service, let the resource manager estimate the interface's ECVs
// from its own statistics, predict per-request energy with the Fig. 1
// interface, then measure a fresh request window with RAPL (host) + NVML
// (GPU) and compare.
// Capacity points are independent — each builds its own rig, host, and
// service — so they fan out across workers; results keep sweep order.
func Fig1WebService() (*Fig1Result, error) {
	pts := make([]Fig1Point, len(Fig1Capacities))
	err := forEachIndexed(len(Fig1Capacities), func(i int) error {
		pt, err := fig1Point(Fig1Capacities[i])
		if err != nil {
			return err
		}
		pts[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Points: pts}, nil
}

func fig1Point(localCap int) (Fig1Point, error) {
	rig, err := microbench.Rig4090()
	if err != nil {
		return Fig1Point{}, err
	}
	host := mlservice.NewHost(mlservice.DefaultHostSpec(), 3)
	svc, err := mlservice.NewService(host, rig.GPU, nn.Fig1CNN(), localCap, fig1RemoteCapacity)
	if err != nil {
		return Fig1Point{}, err
	}
	cnnIface, err := nn.CNNEnergyInterface(nn.Fig1CNN(), rig.Spec, rig.Coef.HardwareInterface())
	if err != nil {
		return Fig1Point{}, err
	}
	z := trace.NewZipf(fig1Universe, fig1ZipfSkew, 9)
	request := func() mlservice.Request {
		return mlservice.Request{Key: z.Next(), Pixels: fig1Pixels, Zeros: fig1Zeros}
	}
	for i := 0; i < fig1Warmup; i++ {
		if _, err := svc.Handle(request()); err != nil {
			return Fig1Point{}, err
		}
	}
	svc.ResetStats()
	for i := 0; i < fig1Estimate; i++ {
		if _, err := svc.Handle(request()); err != nil {
			return Fig1Point{}, err
		}
	}
	pHit, pLocal, ok := svc.EstimatedECVs()
	if !ok {
		return Fig1Point{}, fmt.Errorf("experiments: no ECV estimates")
	}
	iface, err := svc.Interface(pHit, pLocal, cnnIface)
	if err != nil {
		return Fig1Point{}, err
	}
	reqVal := core.Record(map[string]core.Value{
		"pixels": core.Num(fig1Pixels), "zeros": core.Num(fig1Zeros),
	})
	d, err := iface.Eval("handle", []core.Value{reqVal}, core.Expected())
	if err != nil {
		return Fig1Point{}, err
	}
	predicted := energy.Joules(d.Mean())

	raplWin := rapl.NewCounter(host, rapl.DefaultESU).NewWindow()
	meter := nvml.NewMeter(rig.GPU)
	snap := meter.Snapshot()
	for i := 0; i < fig1Window; i++ {
		if _, err := svc.Handle(request()); err != nil {
			return Fig1Point{}, err
		}
		if i%100 == 0 {
			raplWin.Poll()
		}
	}
	measured := (raplWin.Energy() + meter.EnergySince(snap)) / fig1Window
	return Fig1Point{
		LocalCapacity: localCap,
		PRequestHit:   pHit,
		PLocalHit:     pLocal,
		Predicted:     predicted,
		Measured:      measured,
		RelErr:        energy.RelativeError(predicted, measured),
	}, nil
}

// --- F2: Fig. 2's layered stack and hardware rebinding ---

// Fig2Row is one (stack origin, device) prediction/measurement pair.
type Fig2Row struct {
	Stack  string // how the interface was obtained
	Device string
	RelErr float64
}

// Fig2Result demonstrates rebinding: the same model-layer interface serves
// both devices; only the bottom binding changes.
type Fig2Result struct {
	Rows []Fig2Row
}

// Table renders F2.
func (r *Fig2Result) Table() *Table {
	t := &Table{
		ID:     "F2",
		Title:  "Fig. 2 layered stack: hardware rebinding preserves accuracy",
		Header: []string{"stack interface", "device", "prediction error"},
		Notes: []string{
			"'rebound' = 4090 stack with Rebind(\"hw\", 3070 device); zero model-layer changes",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Stack, row.Device, pct(row.RelErr)})
	}
	return t
}

// fig2Tokens is the generation length used by F2.
const fig2Tokens = 100

// Fig2Rebinding builds the GPT-2 stack interface against the 4090 device,
// validates it there, then retargets it to the 3070 with a single Rebind
// and validates again — "nothing needs to change in the software stack but
// only some of the energy interfaces in the bottom layer need to be
// replaced" (§3).
func Fig2Rebinding() (*Fig2Result, error) {
	rig4090, err := microbench.Rig4090()
	if err != nil {
		return nil, err
	}
	rig3070, err := microbench.Rig3070()
	if err != nil {
		return nil, err
	}
	stack, err := nn.StackInterface(nn.GPT2Small(), rig4090.Device)
	if err != nil {
		return nil, err
	}
	rebound, err := stack.Rebind("hw", rig3070.Device)
	if err != nil {
		return nil, err
	}

	measure := func(rig *microbench.Rig) (energy.Joules, error) {
		eng, err := nn.NewEngine(nn.GPT2Small(), rig.GPU)
		if err != nil {
			return 0, err
		}
		rig.GPU.Idle(1.0)
		meter := nvml.NewMeter(rig.GPU)
		snap := meter.Snapshot()
		if _, err := eng.Generate(Table1PromptLen, fig2Tokens); err != nil {
			return 0, err
		}
		return meter.EnergySince(snap), nil
	}
	evalErr := func(iface interface {
		ExpectedJoules(string, ...core.Value) (energy.Joules, error)
	}, rig *microbench.Rig) (float64, error) {
		pred, err := iface.ExpectedJoules("generate",
			core.Num(Table1PromptLen), core.Num(fig2Tokens))
		if err != nil {
			return 0, err
		}
		meas, err := measure(rig)
		if err != nil {
			return 0, err
		}
		return energy.RelativeError(pred, meas), nil
	}

	e1, err := evalErr(stack, rig4090)
	if err != nil {
		return nil, err
	}
	e2, err := evalErr(rebound, rig3070)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Rows: []Fig2Row{
		{Stack: "built on 4090", Device: rig4090.Spec.Name, RelErr: e1},
		{Stack: "rebound to 3070", Device: rig3070.Spec.Name, RelErr: e2},
	}}, nil
}
