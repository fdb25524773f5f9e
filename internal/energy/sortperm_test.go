package energy

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// tieHeavy draws 1–700 values from a pool much smaller than the draw, so
// most of them tie, with both zeros in the pool.
func tieHeavy(rng *rand.Rand) []float64 {
	n := 1 + rng.Intn(700)
	pool := make([]float64, 1+rng.Intn(1+n/4))
	for i := range pool {
		pool[i] = math.Round(rng.NormFloat64() * 100)
	}
	pool[0] = math.Copysign(0, -1)
	values := make([]float64, n)
	for i := range values {
		values[i] = pool[rng.Intn(len(pool))]
	}
	return values
}

// TestSortPermutationMatchesSortSlice pins what cmpValue's comment claims:
// slices.SortFunc over cmpValue leaves elements in the order sort.Slice
// over a.x < b.x left them — ties included, which is what decides the
// order Categorical adds equal values' masses in. The second half checks
// the consequence end to end: Categorical is bit-identical to a copy of
// itself that still sorts through sort.Slice.
func TestSortPermutationMatchesSortSlice(t *testing.T) {
	trials := 3000 // 200,000 when the change was made; the rest is regression cover
	if testing.Short() {
		trials = 300
	}
	type tagged struct {
		x   float64
		tag int
	}
	rng := rand.New(rand.NewSource(20261004))
	for trial := 0; trial < trials; trial++ {
		values := tieHeavy(rng)
		a := make([]tagged, len(values))
		for i, v := range values {
			a[i] = tagged{v, i}
		}
		b := slices.Clone(a)
		sort.Slice(a, func(i, j int) bool { return a[i].x < a[j].x })
		slices.SortFunc(b, func(p, q tagged) int { return cmpValue(p.x, q.x) })
		if !slices.Equal(a, b) {
			t.Fatalf("trial %d (%d values): the two sorts left different permutations", trial, len(values))
		}

		probs := make([]float64, len(values))
		for i := range probs {
			probs[i] = rng.Float64()
		}
		got, want := Categorical(values, probs), categoricalViaSortSlice(values, probs)
		if len(got.xs) != len(want.xs) {
			t.Fatalf("trial %d: %d support points, want %d", trial, len(got.xs), len(want.xs))
		}
		for i := range want.xs {
			if math.Float64bits(got.xs[i]) != math.Float64bits(want.xs[i]) ||
				math.Float64bits(got.ps[i]) != math.Float64bits(want.ps[i]) {
				t.Fatalf("trial %d point %d: got (%v, %v), want (%v, %v)",
					trial, i, got.xs[i], got.ps[i], want.xs[i], want.ps[i])
			}
		}
	}
}

// categoricalViaSortSlice is Categorical as it was before cmpValue, for
// valid input.
func categoricalViaSortSlice(values, probs []float64) Dist {
	total := 0.0
	for _, p := range probs {
		total += p
	}
	type wp struct{ x, p float64 }
	items := make([]wp, 0, len(values))
	for i, v := range values {
		if probs[i] <= 0 {
			continue
		}
		items = append(items, wp{v, probs[i] / total})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].x < items[j].x })
	var d Dist
	for _, it := range items {
		n := len(d.xs)
		if n > 0 && d.xs[n-1] == it.x {
			d.ps[n-1] += it.p
			continue
		}
		d.xs = append(d.xs, it.x)
		d.ps = append(d.ps, it.p)
	}
	return d
}
