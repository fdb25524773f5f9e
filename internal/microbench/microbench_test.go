package microbench

import (
	"math"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/gpusim"
)

func TestCalibrateRecoversCoefficients4090(t *testing.T) {
	g := gpusim.NewGPU(gpusim.RTX4090(), 42)
	c, err := Calibrate(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	instr, l1, l2, vram, static := g.TrueCoefficientsForTest()
	check := func(name string, got, truth, tol float64) {
		rel := math.Abs(got-truth) / truth
		if rel > tol {
			t.Errorf("%s: estimated %.4g vs true %.4g (rel %.4f > %.4f)",
				name, got, truth, rel, tol)
		}
	}
	// On the precise device, calibration should land within ~2%.
	check("instr", float64(c.Instr), float64(instr), 0.02)
	check("l1", float64(c.L1), float64(l1), 0.02)
	check("l2", float64(c.L2), float64(l2), 0.05)
	check("vram", float64(c.VRAM), float64(vram), 0.05)
	check("static", float64(c.Static), float64(static), 0.10)
}

func TestCalibrate3070WorseThan4090(t *testing.T) {
	relErr := func(spec gpusim.Spec, seed int64) float64 {
		g := gpusim.NewGPU(spec, seed)
		c, err := Calibrate(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		instr, _, _, vram, _ := g.TrueCoefficientsForTest()
		e1 := math.Abs(float64(c.Instr-instr)) / float64(instr)
		e2 := math.Abs(float64(c.VRAM-vram)) / float64(vram)
		return (e1 + e2) / 2
	}
	var sum4090, sum3070 float64
	const n = 5
	for seed := int64(0); seed < n; seed++ {
		sum4090 += relErr(gpusim.RTX4090(), seed)
		sum3070 += relErr(gpusim.RTX3070(), seed)
	}
	if sum3070 <= sum4090 {
		t.Fatalf("3070 calibration (%.4f) should be worse than 4090 (%.4f)",
			sum3070/n, sum4090/n)
	}
}

func TestCalibrateDeterministic(t *testing.T) {
	a, err := Calibrate(gpusim.NewGPU(gpusim.RTX4090(), 7), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(gpusim.NewGPU(gpusim.RTX4090(), 7), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("calibration not deterministic: %+v vs %+v", a, b)
	}
}

func TestSuiteCoversAllRegimes(t *testing.T) {
	for _, spec := range []gpusim.Spec{gpusim.RTX4090(), gpusim.RTX3070()} {
		names := map[string]bool{}
		for _, k := range Suite(spec) {
			names[k.Name] = true
		}
		for _, want := range []string{"instr", "l1", "l2", "vram", "mix1"} {
			if !names[want] {
				t.Errorf("%s suite missing %q kernels", spec.Name, want)
			}
		}
	}
}

func TestHardwareInterfaceEvaluates(t *testing.T) {
	c := Coefficients{Device: "X", Instr: 1e-12, L1: 2e-12, L2: 3e-12, VRAM: 4e-12, Static: 50}
	hw := c.HardwareInterface()
	if hw.Name() != "gpu_X" {
		t.Fatalf("name = %q", hw.Name())
	}
	j, err := hw.ExpectedJoules("kernel",
		core.Num(1e9), core.Num(1e8), core.Num(1e7), core.Num(1e6), core.Num(0.5))
	if err != nil {
		t.Fatal(err)
	}
	want := 1e9*1e-12 + 1e8*2e-12 + 1e7*3e-12 + 1e6*4e-12 + 50*0.5
	if math.Abs(float64(j)-want) > 1e-9*want {
		t.Fatalf("kernel energy %v, want %v", j, want)
	}
	// Per-metric methods.
	j, err = hw.ExpectedJoules("vram", core.Num(2e6))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(j)-8e-6) > 1e-18 {
		t.Fatalf("vram energy %v", j)
	}
}

func TestCalibrateRepeatsReduceNoise(t *testing.T) {
	// More repeats should not make the estimate worse on average across
	// devices (noise averaging). Allow slack; just require not-dramatically-
	// worse to keep the test robust.
	spread := func(repeats int) float64 {
		total := 0.0
		for seed := int64(1); seed <= 4; seed++ {
			g := gpusim.NewGPU(gpusim.RTX3070(), seed)
			c, err := Calibrate(g, repeats)
			if err != nil {
				t.Fatal(err)
			}
			instr, _, _, _, _ := g.TrueCoefficientsForTest()
			total += math.Abs(float64(c.Instr-instr)) / float64(instr)
		}
		return total
	}
	if s5, s1 := spread(5), spread(1); s5 > s1*1.5 {
		t.Fatalf("5 repeats (%.4f) much worse than 1 (%.4f)", s5, s1)
	}
}
