package energy

import (
	"math"
	"math/rand"
	"testing"
)

// TestEmpiricalMatchesCategoricalOnExpandedSample is the property Monte
// Carlo's tabulated path rests on: Empirical over (value, count) pairs is
// Categorical over the sample written out one observation at a time, with
// probability 1/N each — bit for bit, for sample sizes whose 1/N is not a
// power of two, values repeated across pairs, and zero counts.
func TestEmpiricalMatchesCategoricalOnExpandedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(20250930))
	for trial := 0; trial < 300; trial++ {
		cells := 1 + rng.Intn(40)
		pool := make([]float64, 1+rng.Intn(cells)) // fewer values than cells: duplicates across cells
		for i := range pool {
			pool[i] = math.Round(rng.NormFloat64()*1e6) / 1e3
		}
		values := make([]float64, cells)
		counts := make([]int, cells)
		var sample []float64
		for i := range values {
			values[i] = pool[rng.Intn(len(pool))]
			switch rng.Intn(4) {
			case 0:
				counts[i] = 0
			case 1:
				counts[i] = 1
			default:
				counts[i] = 1 + rng.Intn(500)
			}
			for c := 0; c < counts[i]; c++ {
				sample = append(sample, values[i])
			}
		}
		if len(sample) == 0 {
			counts[0] = 3
			sample = []float64{values[0], values[0], values[0]}
		}
		rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
		probs := make([]float64, len(sample))
		for i := range probs {
			probs[i] = 1.0 / float64(len(sample))
		}
		want := Categorical(sample, probs)
		got := Empirical(values, counts)
		if len(got.xs) != len(want.xs) {
			t.Fatalf("trial %d (N=%d): %d support points, want %d", trial, len(sample), len(got.xs), len(want.xs))
		}
		for i := range want.xs {
			if math.Float64bits(got.xs[i]) != math.Float64bits(want.xs[i]) ||
				math.Float64bits(got.ps[i]) != math.Float64bits(want.ps[i]) {
				t.Fatalf("trial %d (N=%d) point %d: got (%v, %v), want (%v, %v)",
					trial, len(sample), i, got.xs[i], got.ps[i], want.xs[i], want.ps[i])
			}
		}
	}
}

func TestEmpiricalRejectsMalformed(t *testing.T) {
	for name, f := range map[string]func(){
		"mismatch":        func() { Empirical([]float64{1, 2}, []int{1}) },
		"no observations": func() { Empirical([]float64{1, 2}, []int{0, -1}) },
		"NaN":             func() { Empirical([]float64{math.NaN()}, []int{2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Empirical accepted malformed input", name)
				}
			}()
			f()
		}()
	}
	// A NaN nobody observed is dropped, as Categorical drops zero-probability values.
	if d := Empirical([]float64{math.NaN(), 2}, []int{0, 5}); d.Len() != 1 || math.Abs(d.Prob(2)-1) > 1e-12 {
		t.Errorf("Empirical = %v, want {2:1}", d)
	}
}

// TestScratchOutstandingBalances: the leak counter moves with borrows and
// returns of both buffer kinds, and the kernels that borrow hand back
// everything.
func TestScratchOutstandingBalances(t *testing.T) {
	before := ScratchOutstanding()
	f, n := BorrowScratch(10), BorrowInts(10)
	if got := ScratchOutstanding(); got != before+2 {
		t.Errorf("outstanding = %d after two borrows, want %d", got, before+2)
	}
	ReturnScratch(f)
	ReturnInts(n)
	a := UniformOver(1, 2, 3, 5, 8)
	_ = a.Add(a).Repeat(5)
	_ = Mix([]float64{1, 2}, []Dist{a, a.Scale(3)})
	_ = Empirical([]float64{3, 1, 3}, []int{2, 1, 4})
	if got := ScratchOutstanding(); got != before {
		t.Errorf("outstanding = %d, want %d: a buffer leaked", got, before)
	}
}
