package profile

import (
	"math"
	"strings"
	"testing"

	"energyclarity/internal/gpusim"
	"energyclarity/internal/nn"
	"energyclarity/internal/nvml"
)

func TestFitExactLinear(t *testing.T) {
	// y = 3x1 - 2x2 + 7.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 10; i++ {
		x := []float64{float64(i), float64(i * i % 5)}
		xs = append(xs, x)
		ys = append(ys, 3*x[0]-2*x[1]+7)
	}
	m, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	w := m.Weights()
	if math.Abs(w[0]-3) > 1e-9 || math.Abs(w[1]+2) > 1e-9 || math.Abs(m.Intercept()-7) > 1e-9 {
		t.Fatalf("fit w=%v b=%v", w, m.Intercept())
	}
	if r2, _ := m.R2(xs, ys); math.Abs(r2-1) > 1e-12 {
		t.Fatalf("R² = %v", r2)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("underdetermined accepted")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}, {1, 2}}, []float64{1, 2, 3}); err == nil {
		t.Error("ragged features accepted")
	}
	if _, err := Fit([][]float64{{}}, []float64{1}); err == nil {
		t.Error("empty feature vector accepted")
	}
	// Collinear: second feature is 2× the first.
	var xs [][]float64
	var ys []float64
	for i := 1; i <= 5; i++ {
		xs = append(xs, []float64{float64(i), 2 * float64(i)})
		ys = append(ys, float64(i))
	}
	if _, err := Fit(xs, ys); err == nil {
		t.Error("collinear features accepted")
	}
}

func TestPredictPanicsOnWrongArity(t *testing.T) {
	m, err := Fit([][]float64{{1}, {2}, {3}}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch accepted")
		}
	}()
	m.Predict([]float64{1, 2})
}

func TestR2DegenerateSets(t *testing.T) {
	m, err := Fit([][]float64{{1}, {2}, {3}}, []float64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.R2(nil, nil); err == nil {
		t.Error("empty evaluation set accepted")
	}
	// Constant target, perfect prediction.
	r2, err := m.R2([][]float64{{1}, {1}}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if r2 != 1 {
		t.Errorf("constant-target R² = %v, want 1", r2)
	}
}

// TestExtrapolationFailureOnGPT2 is E7 in miniature: a regression trained
// on short generations underestimates long ones, because per-token cost
// grows with KV-cache length — structure the black-box model never saw.
func TestExtrapolationFailureOnGPT2(t *testing.T) {
	gpu := gpusim.NewGPU(gpusim.RTX4090(), 30)
	eng, err := nn.NewEngine(nn.GPT2Small(), gpu)
	if err != nil {
		t.Fatal(err)
	}
	meter := nvml.NewMeter(gpu)
	measure := func(tokens int) float64 {
		return float64(meter.Measure(func() {
			if _, err := eng.Generate(16, tokens); err != nil {
				t.Fatal(err)
			}
		}))
	}
	// Train on 5..50 tokens: energy vs token count.
	var xs [][]float64
	var ys []float64
	for tok := 5; tok <= 50; tok += 5 {
		xs = append(xs, []float64{float64(tok)})
		ys = append(ys, measure(tok))
	}
	m, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// In-distribution it interpolates fine.
	in := measure(30)
	if rel := math.Abs(m.Predict([]float64{30})-in) / in; rel > 0.05 {
		t.Fatalf("in-distribution error %.3f", rel)
	}
	// Out of distribution it must underpredict by a clear margin (the
	// attention term is quadratic in total tokens).
	out := measure(600)
	pred := m.Predict([]float64{600})
	if pred >= out*0.97 {
		t.Fatalf("expected extrapolation shortfall: predicted %v vs measured %v", pred, out)
	}
}

func TestLeastSquaresExactSystem(t *testing.T) {
	// Synthetic exact data must be recovered to machine precision.
	truth := []float64{2, 3, 5, 7, 11}
	var xs [][]float64
	var ys []float64
	rows := [][]float64{
		{1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 0, 1, 0, 0}, {0, 0, 0, 1, 0},
		{0, 0, 0, 0, 1}, {1, 1, 1, 1, 1}, {2, 1, 0, 1, 3}, {5, 4, 3, 2, 1},
	}
	for _, r := range rows {
		y := 0.0
		for i := 0; i < 5; i++ {
			y += r[i] * truth[i]
		}
		xs = append(xs, r)
		ys = append(ys, y)
	}
	got, err := LeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if math.Abs(got[i]-truth[i]) > 1e-9 {
			t.Fatalf("coef %d = %v, want %v", i, got[i], truth[i])
		}
	}
}

func TestLeastSquaresBadlyScaledColumns(t *testing.T) {
	// Columns differing by 12 orders of magnitude must still solve exactly
	// (this is the real calibration regime: event counts vs durations).
	truth := []float64{1e-12, 5}
	var xs [][]float64
	var ys []float64
	for i := 1; i <= 6; i++ {
		x := []float64{float64(i) * 1e9, float64(i*i) * 1e-3}
		xs = append(xs, x)
		ys = append(ys, x[0]*truth[0]+x[1]*truth[1])
	}
	got, err := LeastSquares(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-6*math.Abs(truth[i]) {
			t.Fatalf("coef %d = %v, want %v", i, got[i], truth[i])
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares([][]float64{{1, 0, 0, 0, 0}}, []float64{1}); err == nil ||
		!strings.Contains(err.Error(), "at least 5") {
		t.Errorf("underdetermined system accepted: %v", err)
	}
	if _, err := LeastSquares([][]float64{{1, 0, 0, 0, 0}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix accepted")
	}
	// Singular: a column never excited.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 6; i++ {
		xs = append(xs, []float64{float64(i + 1), float64(i), 0, float64(i % 2), 1})
		ys = append(ys, float64(i))
	}
	if _, err := LeastSquares(xs, ys); err == nil ||
		!strings.Contains(err.Error(), "singular") {
		t.Errorf("singular system accepted: %v", err)
	}
	// Perfectly collinear columns.
	xs = nil
	ys = nil
	for i := 1; i <= 6; i++ {
		xs = append(xs, []float64{float64(i), 2 * float64(i), 0, 0, 0})
		ys = append(ys, float64(i))
	}
	if _, err := LeastSquares(xs, ys); err == nil {
		t.Error("collinear system accepted")
	}
}
