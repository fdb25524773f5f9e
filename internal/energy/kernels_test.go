package energy

import (
	"math"
	"math/rand"
	"testing"
)

// --- reference implementations (the pre-kernel code paths) ---

// refAdd is the original build-the-product-then-sort convolution.
func refAdd(d, o Dist) Dist {
	if d.IsZero() {
		return o
	}
	if o.IsZero() {
		return d
	}
	values := make([]float64, 0, len(d.xs)*len(o.xs))
	probs := make([]float64, 0, len(d.xs)*len(o.xs))
	for i, x := range d.xs {
		for j, y := range o.xs {
			values = append(values, x+y)
			probs = append(probs, d.ps[i]*o.ps[j])
		}
	}
	return Categorical(values, probs).compact(MaxSupport)
}

// refMix is the original concatenate-then-sort mixture.
func refMix(weights []float64, dists []Dist) Dist {
	var values, probs []float64
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for k, dk := range dists {
		w := weights[k] / total
		if w == 0 {
			continue
		}
		if dk.IsZero() {
			values = append(values, 0)
			probs = append(probs, w)
			continue
		}
		for i, x := range dk.xs {
			values = append(values, x)
			probs = append(probs, w*dk.ps[i])
		}
	}
	return Categorical(values, probs).compact(MaxSupport)
}

// refCompact is the quadratic smallest-interior-gap rescan with the
// extreme support points pinned — the reference for compactMerge's policy.
func refCompact(d Dist, limit int) Dist {
	if len(d.xs) <= limit {
		return d
	}
	xs := append([]float64(nil), d.xs...)
	ps := append([]float64(nil), d.ps...)
	if limit <= 2 {
		// Mirror compactToExtremes: mean-preserving collapse onto the
		// extremes (limit 2) or the mean point (limit 1).
		total, mean := 0.0, 0.0
		for i, p := range ps {
			total += p
			mean += xs[i] * p
		}
		mean /= total
		if limit <= 1 {
			return Dist{xs: []float64{mean}, ps: []float64{total}}
		}
		lo, hi := xs[0], xs[len(xs)-1]
		if hi == lo {
			return Dist{xs: []float64{lo}, ps: []float64{total}}
		}
		pHi := total * (mean - lo) / (hi - lo)
		if pHi < 0 {
			pHi = 0
		} else if pHi > total {
			pHi = total
		}
		return Dist{xs: []float64{lo, hi}, ps: []float64{total - pHi, pHi}}
	}
	for len(xs) > limit {
		best := -1
		bestGap := math.Inf(1)
		// Interior pairs only: merging a pair that includes xs[0] or
		// xs[len-1] would pull Min/Max inward.
		for i := 1; i+2 < len(xs); i++ {
			if gap := xs[i+1] - xs[i]; gap < bestGap {
				bestGap = gap
				best = i
			}
		}
		p := ps[best] + ps[best+1]
		x := (xs[best]*ps[best] + xs[best+1]*ps[best+1]) / p
		xs[best], ps[best] = x, p
		xs = append(xs[:best+1], xs[best+2:]...)
		ps = append(ps[:best+1], ps[best+2:]...)
	}
	return Dist{xs: xs, ps: ps}
}

func randomDist(rng *rand.Rand, n int) Dist {
	values := make([]float64, n)
	probs := make([]float64, n)
	for i := range values {
		// Coarse grid so duplicate support points (and sums) actually occur.
		values[i] = float64(rng.Intn(50))
		probs[i] = rng.Float64() + 0.01
	}
	return Categorical(values, probs)
}

func TestConvolutionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := randomDist(rng, 1+rng.Intn(24))
		b := randomDist(rng, 1+rng.Intn(24))
		got := a.Add(b)
		want := refAdd(a, b)
		if !got.Equal(want, 1e-12) {
			t.Fatalf("trial %d: Add mismatch\n got %v\nwant %v", trial, got, want)
		}
		if math.Abs(got.TotalProb()-1) > 1e-9 {
			t.Fatalf("trial %d: total prob %v", trial, got.TotalProb())
		}
	}
}

func TestMixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(5)
		weights := make([]float64, k)
		dists := make([]Dist, k)
		for i := range dists {
			weights[i] = rng.Float64()
			if rng.Intn(6) == 0 {
				weights[i] = 0 // exercise the zero-weight skip
			}
			if rng.Intn(6) == 0 {
				dists[i] = Dist{} // exercise the zero-component lane
			} else {
				dists[i] = randomDist(rng, 1+rng.Intn(16))
			}
		}
		// refMix/Mix both panic on all-zero weights; keep at least one.
		weights[0] += 0.25
		got := Mix(weights, dists)
		want := refMix(weights, dists)
		if !got.Equal(want, 1e-12) {
			t.Fatalf("trial %d: Mix mismatch\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestCompactMatchesReference: the heap-based compaction must reproduce
// the quadratic rescan's merge sequence exactly (same smallest interior
// gap, leftmost-tie, extremes-pinned policy), so outputs are bit-identical.
func TestCompactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 20 + rng.Intn(120)
		values := make([]float64, n)
		probs := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64() * 100
			if rng.Intn(4) == 0 {
				values[i] = math.Floor(values[i]) // equal gaps to exercise ties
			}
			probs[i] = rng.Float64() + 0.01
		}
		d := Categorical(values, probs)
		limit := 1 + rng.Intn(16)
		got := d.compact(limit)
		want := refCompact(d, limit)
		if got.Len() > limit {
			t.Fatalf("trial %d: compact left %d > limit %d", trial, got.Len(), limit)
		}
		if !got.Equal(want, 0) {
			t.Fatalf("trial %d (limit %d): compact mismatch\n got %v\nwant %v",
				trial, limit, got, want)
		}
	}
}

// TestCompactPinsExtremes: compaction must not move Min or Max inward —
// the §4.1 worst-case bound is only sound if WorstCase() survives support
// compaction exactly — and must keep the mean exact (the merge is a
// probability-weighted average, so this holds for interior merges too).
func TestCompactPinsExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 10 + rng.Intn(200)
		values := make([]float64, n)
		probs := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64() * 1000
			probs[i] = rng.Float64() + 0.001
		}
		d := Categorical(values, probs)
		for _, limit := range []int{2, 3, 4, 8, n / 2} {
			if limit < 2 || limit >= d.Len() {
				continue
			}
			c := d.compact(limit)
			if c.Len() > limit {
				t.Fatalf("trial %d limit %d: %d points left", trial, limit, c.Len())
			}
			if c.Min() != d.Min() || c.Max() != d.Max() {
				t.Fatalf("trial %d limit %d: bounds moved: [%v,%v] -> [%v,%v]",
					trial, limit, d.Min(), d.Max(), c.Min(), c.Max())
			}
			if rel := math.Abs(c.Mean()-d.Mean()) / math.Abs(d.Mean()); rel > 1e-9 {
				t.Fatalf("trial %d limit %d: mean drifted %v -> %v", trial, limit, d.Mean(), c.Mean())
			}
			if math.Abs(c.TotalProb()-d.TotalProb()) > 1e-9 {
				t.Fatalf("trial %d limit %d: mass changed %v -> %v",
					trial, limit, d.TotalProb(), c.TotalProb())
			}
		}
	}
	// Chained arithmetic keeps bounds exact end to end: the worst case of a
	// sum is the sum of worst cases even after repeated MaxSupport capping.
	a := randomWide(rng, 300)
	b := randomWide(rng, 300)
	s := a.Add(b)
	if s.Max() != a.Max()+b.Max() || s.Min() != a.Min()+b.Min() {
		t.Fatalf("convolution bounds: got [%v,%v], want [%v,%v]",
			s.Min(), s.Max(), a.Min()+b.Min(), a.Max()+b.Max())
	}
}

// randomWide builds an n-point distribution on an irrational grid, wide
// enough that Add must compact.
func randomWide(rng *rand.Rand, n int) Dist {
	values := make([]float64, n)
	probs := make([]float64, n)
	for i := range values {
		values[i] = rng.Float64() * 1e4
		probs[i] = rng.Float64() + 0.01
	}
	return Categorical(values, probs)
}

func TestConvolutionLargeSupportCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Two wide irrational-grid dists: the raw product has ~MaxSupport²
	// points and must be compacted down.
	mk := func() Dist {
		values := make([]float64, MaxSupport)
		probs := make([]float64, MaxSupport)
		for i := range values {
			values[i] = rng.Float64() * 1000
			probs[i] = 1
		}
		return Categorical(values, probs)
	}
	a, b := mk(), mk()
	s := a.Add(b)
	if s.Len() > MaxSupport {
		t.Fatalf("support %d > MaxSupport", s.Len())
	}
	wantMean := a.Mean() + b.Mean()
	if math.Abs(s.Mean()-wantMean) > 1e-6*math.Abs(wantMean) {
		t.Fatalf("mean drifted: %v vs %v", s.Mean(), wantMean)
	}
	if math.Abs(s.TotalProb()-1) > 1e-9 {
		t.Fatalf("total prob %v", s.TotalProb())
	}
}

func TestScratchPoolRoundTrip(t *testing.T) {
	a := BorrowScratch(100)
	if len(*a) != 100 {
		t.Fatalf("len %d", len(*a))
	}
	for i := range *a {
		(*a)[i] = float64(i)
	}
	ReturnScratch(a)
	b := BorrowScratch(10)
	if len(*b) != 10 {
		t.Fatalf("len %d", len(*b))
	}
	ReturnScratch(b)
	// Growing borrow after a small one must still size correctly.
	c := BorrowScratch(5000)
	if len(*c) != 5000 {
		t.Fatalf("len %d", len(*c))
	}
	ReturnScratch(c)
}

// TestScratchReturnsAllocateNothing: a borrow and its return cost no
// allocation once the pool holds a large enough buffer — the pool gets
// back the pointer it lent, not a new one to a slice header.
func TestScratchReturnsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	ReturnScratch(BorrowScratch(64))
	ReturnInts(BorrowInts(64))
	if allocs := testing.AllocsPerRun(100, func() {
		f, n := BorrowScratch(64), BorrowInts(64)
		ReturnInts(n)
		ReturnScratch(f)
	}); allocs != 0 {
		t.Errorf("a borrow and a return of each kind made %v allocations, want 0", allocs)
	}
}
