// Package profile implements the baseline the paper argues against (§2):
// black-box empirical power/energy modelling. A Model is fit by least
// squares from observed (features, measured energy) pairs — profiling —
// and predicts energy for new feature vectors.
//
// Such models "can miss important details that did not manifest during
// profiling or training" (§2). The E7 experiment shows exactly that:
// trained on short generations, the regression extrapolates badly to long
// ones (the KV cache makes per-token cost grow with position, which a
// linear feature model never saw), while the energy interface — which
// states the structure — stays accurate.
package profile

import (
	"fmt"
	"math"
)

// Model is a linear model y = w·x + b.
type Model struct {
	weights   []float64
	intercept float64
	nFeatures int
}

// Fit trains a linear model with intercept by least squares. It returns an
// error when the system is degenerate (too few samples, collinear
// features, ragged input).
func Fit(features [][]float64, ys []float64) (*Model, error) {
	if len(features) != len(ys) {
		return nil, fmt.Errorf("profile: %d feature rows vs %d observations", len(features), len(ys))
	}
	if len(features) == 0 {
		return nil, fmt.Errorf("profile: no training data")
	}
	k := len(features[0])
	if k == 0 {
		return nil, fmt.Errorf("profile: empty feature vectors")
	}
	// Augment with the intercept column.
	n := k + 1
	if len(features) < n {
		return nil, fmt.Errorf("profile: need at least %d samples for %d features", n, k)
	}
	xs := make([][]float64, len(features))
	for i, f := range features {
		if len(f) != k {
			return nil, fmt.Errorf("profile: ragged features (row %d)", i)
		}
		row := make([]float64, n)
		copy(row, f)
		row[k] = 1
		xs[i] = row
	}
	coef, err := LeastSquares(xs, ys)
	if err != nil {
		return nil, err
	}
	return &Model{weights: coef[:k], intercept: coef[k], nFeatures: k}, nil
}

// Predict returns the model's estimate for x. It panics on a feature-count
// mismatch (caller bug).
func (m *Model) Predict(x []float64) float64 {
	if len(x) != m.nFeatures {
		panic(fmt.Sprintf("profile: %d features, model has %d", len(x), m.nFeatures))
	}
	y := m.intercept
	for i, w := range m.weights {
		y += w * x[i]
	}
	return y
}

// Weights returns a copy of the fitted weights (without intercept).
func (m *Model) Weights() []float64 {
	out := make([]float64, len(m.weights))
	copy(out, m.weights)
	return out
}

// Intercept returns the fitted intercept.
func (m *Model) Intercept() float64 { return m.intercept }

// R2 computes the coefficient of determination of the model on a dataset.
func (m *Model) R2(features [][]float64, ys []float64) (float64, error) {
	if len(features) != len(ys) || len(ys) == 0 {
		return 0, fmt.Errorf("profile: bad evaluation set")
	}
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	ssRes, ssTot := 0.0, 0.0
	for i, f := range features {
		d := ys[i] - m.Predict(f)
		ssRes += d * d
		t := ys[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		// Constant target: R² is 1 when the model reproduces it (up to
		// numerical fitting noise) and 0 otherwise.
		if ssRes <= 1e-18*(1+mean*mean)*float64(len(ys)) {
			return 1, nil
		}
		return 0, nil
	}
	return 1 - ssRes/ssTot, nil
}

// LeastSquares solves min ||X b - y||² via the normal equations and
// Gauss-Jordan elimination with partial pivoting. Columns are scaled to
// unit max-norm first (raw event counts differ by orders of magnitude).
// Degenerate systems return an error. It is the one solver of the repo:
// Fit's profiling baseline and microbench's calibration both call it.
func LeastSquares(xs [][]float64, ys []float64) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("profile: design matrix and observations disagree (%d vs %d)", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("profile: no observations")
	}
	k := len(xs[0])
	if len(xs) < k {
		return nil, fmt.Errorf("profile: need at least %d observations, have %d", k, len(xs))
	}
	scale := make([]float64, k)
	for _, x := range xs {
		if len(x) != k {
			return nil, fmt.Errorf("profile: ragged design matrix")
		}
		for i := 0; i < k; i++ {
			if a := math.Abs(x[i]); a > scale[i] {
				scale[i] = a
			}
		}
	}
	for i := range scale {
		if scale[i] == 0 {
			return nil, fmt.Errorf("profile: singular normal equations (column %d never excited)", i)
		}
	}
	// Augmented normal matrix [X'X | X'y], column-scaled.
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, k+1)
	}
	for r, x := range xs {
		for i := 0; i < k; i++ {
			m[i][k] += x[i] / scale[i] * ys[r]
			for j := 0; j < k; j++ {
				m[i][j] += x[i] / scale[i] * x[j] / scale[j]
			}
		}
	}
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-24 {
			return nil, fmt.Errorf("profile: singular normal equations (column %d collinear)", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= k; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	b := make([]float64, k)
	for i := 0; i < k; i++ {
		b[i] = m[i][k] / m[i][i] / scale[i]
		if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
			return nil, fmt.Errorf("profile: non-finite solution")
		}
	}
	return b, nil
}
