package energy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Dist is a finite discrete probability distribution over float64 values.
//
// Energy interfaces whose energy-critical variables (ECVs) are random
// variables return distributions rather than scalars (§3 of the paper).
// Dist is the common representation: support points are kept sorted and
// deduplicated, probabilities sum to 1 (within floating-point tolerance).
//
// The zero value of Dist is not useful; construct distributions with
// Point, Bernoulli, Categorical, UniformOver, or combinators.
type Dist struct {
	xs []float64 // sorted, strictly increasing
	ps []float64 // same length, each > 0, sums to ~1
}

// MaxSupport bounds the support size of distributions produced by
// combinators. Convolution of n-point distributions grows multiplicatively;
// when a result would exceed MaxSupport, adjacent support points are merged
// (probability-weighted) until the bound is met. This keeps exact-ish
// arithmetic tractable for deep compositions.
const MaxSupport = 512

const probEps = 1e-12

// Point returns the degenerate distribution concentrated at x.
func Point(x float64) Dist {
	d := sized(1)
	d.xs, d.ps = append(d.xs, x), append(d.ps, 1)
	return d
}

// Bernoulli returns a distribution taking value 1 with probability p and
// 0 with probability 1-p. It panics if p is outside [0,1].
func Bernoulli(p float64) Dist {
	return Bernoulli2(p, 1, 0)
}

// Bernoulli2 returns a distribution taking value hi with probability p and
// lo with probability 1-p. It panics if p is outside [0,1] or NaN.
func Bernoulli2(p, hi, lo float64) Dist {
	if math.IsNaN(p) || p < 0 || p > 1 {
		panic(fmt.Sprintf("energy: Bernoulli probability %v out of [0,1]", p))
	}
	return Categorical([]float64{lo, hi}, []float64{1 - p, p})
}

// Categorical returns a distribution over values with the given
// probabilities. Probabilities must be non-negative and are normalized to
// sum to 1; values with zero probability are dropped; duplicate values are
// merged. It panics if the inputs have mismatched lengths, are empty, or
// the probabilities sum to zero.
func Categorical(values, probs []float64) Dist {
	if len(values) != len(probs) {
		panic("energy: Categorical values/probs length mismatch")
	}
	if len(values) == 0 {
		panic("energy: Categorical with empty support")
	}
	total := 0.0
	for _, p := range probs {
		if math.IsNaN(p) || p < 0 {
			panic(fmt.Sprintf("energy: Categorical probability %v invalid", p))
		}
		total += p
	}
	if total <= 0 {
		panic("energy: Categorical probabilities sum to zero")
	}
	buf := wpPool.Get().(*[]wp)
	defer wpPool.Put(buf)
	items := (*buf)[:0]
	for i, v := range values {
		if probs[i] <= 0 {
			continue
		}
		if math.IsNaN(v) {
			panic("energy: Categorical value is NaN")
		}
		items = append(items, wp{v, probs[i] / total})
	}
	*buf = items
	slices.SortFunc(items, func(a, b wp) int { return cmpValue(a.x, b.x) })
	m := 0 // equal values merge into items[:m], masses added in sort order
	for _, it := range items {
		if m > 0 && items[m-1].x == it.x {
			items[m-1].p += it.p
			continue
		}
		items[m] = it
		m++
	}
	d := sized(m)
	for _, it := range items[:m] {
		d.xs, d.ps = append(d.xs, it.x), append(d.ps, it.p)
	}
	return d
}

// CategoricalMax is Categorical(values, probs).Max() without the
// distribution: the largest value with p > 0, found in one scan that
// allocates nothing. Where Categorical would panic (mismatched lengths,
// no support, a NaN or negative p, a NaN value with p > 0) it panics the
// same way, and where both zeros tie for the extremum it asks Categorical
// too: the two merge into one point whose sign is whichever the sort put
// first. CategoricalMin is the same for Min.
func CategoricalMax(values, probs []float64) float64 { return categoricalBound(values, probs, 1) }

// CategoricalMin is Categorical(values, probs).Min() without the
// distribution; see CategoricalMax.
func CategoricalMin(values, probs []float64) float64 { return categoricalBound(values, probs, -1) }

// categoricalBound scans for the value that orders last by sign·cmpValue
// among those with p > 0, and falls back to Categorical where that value
// is not its answer bit for bit, or where Categorical panics.
func categoricalBound(values, probs []float64, sign int) float64 {
	best, found, mixed := 0.0, false, false
	if len(values) == len(probs) {
		for i, p := range probs {
			if math.IsNaN(p) || p < 0 || p > 0 && math.IsNaN(values[i]) {
				found = false
				break
			}
			switch v := values[i]; {
			case p == 0:
			case !found || cmpValue(v, best) == sign:
				best, found, mixed = v, true, false
			case v == best && math.Signbit(v) != math.Signbit(best):
				mixed = true
			}
		}
	}
	if found && !mixed {
		return best
	}
	d := Categorical(values, probs)
	if sign > 0 {
		return d.Max()
	}
	return d.Min()
}

// wp and vc are the points Categorical and Empirical sort, in buffers
// pooled across calls: a constructor allocates only the Dist it returns.
type (
	wp struct{ x, p float64 }
	vc struct {
		x float64
		c int
	}
)

var (
	wpPool = sync.Pool{New: func() any { return new([]wp) }}
	vcPool = sync.Pool{New: func() any { return new([]vc) }}
)

// sized returns an empty Dist with room for n points, both vectors in one
// allocation. The support is capped at n, so appending past it cannot run
// into the probabilities that follow it.
func sized(n int) Dist {
	both := make([]float64, 2*n)
	return Dist{xs: both[:0:n], ps: both[n:n]}
}

// cmpValue is the three-way order Categorical and Empirical sort their
// points by. The sort is not stable, and Categorical adds the masses of
// equal values in the order the sort leaves them, so which permutation of
// ties comes out is part of the result's bits. slices.SortFunc over this
// and sort.Slice over a.x < b.x — what the constructors used before, at
// three times the cost for its reflection-based swaps — are the same
// generated pdqsort asking the same questions, so they leave the same
// permutation; TestSortPermutationMatchesSortSlice holds them to it.
func cmpValue(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Empirical returns the distribution of a sample given as (value, count)
// pairs: counts[i] of the N = Σcounts observations equal values[i]. The
// result is bit-identical to Categorical over the expanded sample — every
// observation its own entry with probability 1/N — because it repeats that
// call's float operations: the normalising total is 1/N summed N times,
// and each support point's mass is (1/N)/total added once per observation.
// Only the sort shrinks, from N entries to len(values). Values may repeat
// across pairs; non-positive counts are skipped. One exception to bit
// identity: when −0 and +0 both occur they merge into one point whose sign
// is whichever the sort put first, here as in Categorical.
func Empirical(values []float64, counts []int) Dist {
	if len(values) != len(counts) {
		panic("energy: Empirical values/counts length mismatch")
	}
	buf := vcPool.Get().(*[]vc)
	defer vcPool.Put(buf)
	items := (*buf)[:0]
	n := 0
	for i, v := range values {
		if counts[i] <= 0 {
			continue
		}
		if math.IsNaN(v) {
			panic("energy: Empirical value is NaN")
		}
		items = append(items, vc{v, counts[i]})
		n += counts[i]
	}
	if n == 0 {
		panic("energy: Empirical with no observations")
	}
	p := 1.0 / float64(n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += p
	}
	q := p / total
	*buf = items
	slices.SortFunc(items, func(a, b vc) int { return cmpValue(a.x, b.x) })
	m := 0 // equal values merge into items[:m], counts added
	for _, it := range items {
		if m > 0 && items[m-1].x == it.x {
			items[m-1].c += it.c
			continue
		}
		items[m] = it
		m++
	}
	d := sized(m)
	for _, it := range items[:m] {
		mass := 0.0 // 0 + q is q exactly
		for c := it.c; c > 0; c-- {
			mass += q
		}
		d.xs, d.ps = append(d.xs, it.x), append(d.ps, mass)
	}
	return d
}

// UniformOver returns the uniform distribution over the given values.
func UniformOver(values ...float64) Dist {
	probs := make([]float64, len(values))
	for i := range probs {
		probs[i] = 1
	}
	return Categorical(values, probs)
}

// FromSorted reconstructs a Dist from an already-canonical (support, probs)
// pair — strictly increasing values, positive probabilities summing to ~1 —
// exactly as Support/Probs emitted them, without renormalizing. Unlike
// Categorical, the probabilities are stored bit-for-bit, so a Dist
// serialized over a wire and rebuilt here is identical to the original.
// The slices are copied.
func FromSorted(values, probs []float64) (Dist, error) {
	d, err := AdoptSorted(values, probs)
	if err != nil {
		return Dist{}, err
	}
	d = Dist{xs: make([]float64, len(values)), ps: make([]float64, len(probs))}
	copy(d.xs, values)
	copy(d.ps, probs)
	return d, nil
}

// AdoptSorted is FromSorted, every check included, without the copy: the
// Dist keeps values and probs as its own vectors. A Dist is immutable, so
// the caller hands them over — it must not write to them afterwards.
func AdoptSorted(values, probs []float64) (Dist, error) {
	if len(values) != len(probs) {
		return Dist{}, fmt.Errorf("energy: FromSorted values/probs length mismatch (%d vs %d)", len(values), len(probs))
	}
	if len(values) == 0 {
		return Dist{}, fmt.Errorf("energy: FromSorted with empty support")
	}
	total := 0.0
	for i, x := range values {
		if math.IsNaN(x) {
			return Dist{}, fmt.Errorf("energy: FromSorted value %d is NaN", i)
		}
		if i > 0 && values[i-1] >= x {
			return Dist{}, fmt.Errorf("energy: FromSorted values not strictly increasing at %d", i)
		}
		p := probs[i]
		if math.IsNaN(p) || p <= 0 {
			return Dist{}, fmt.Errorf("energy: FromSorted probability %v at %d invalid", p, i)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-6 {
		return Dist{}, fmt.Errorf("energy: FromSorted probabilities sum to %v, want ~1", total)
	}
	return Dist{xs: values, ps: probs}, nil
}

// IsZero reports whether d is the zero (unconstructed) Dist.
func (d Dist) IsZero() bool { return len(d.xs) == 0 }

// Len returns the number of support points.
func (d Dist) Len() int { return len(d.xs) }

// Support returns a copy of the support values in increasing order.
func (d Dist) Support() []float64 {
	out := make([]float64, len(d.xs))
	copy(out, d.xs)
	return out
}

// Probs returns a copy of the probabilities, aligned with Support.
func (d Dist) Probs() []float64 {
	out := make([]float64, len(d.ps))
	copy(out, d.ps)
	return out
}

// View returns the support and probability vectors themselves, not copies:
// what Support and Probs return, without the two allocations. The slices
// are d's own storage and read-only by contract — a Dist is immutable and
// every holder of a view relies on that — so a caller that wants vectors it
// may write to takes Support and Probs instead.
func (d Dist) View() (support, probs []float64) { return d.xs, d.ps }

// Prob returns the probability mass at x (0 if x is not in the support).
func (d Dist) Prob(x float64) float64 {
	i := sort.SearchFloat64s(d.xs, x)
	if i < len(d.xs) && d.xs[i] == x {
		return d.ps[i]
	}
	return 0
}

// Mean returns the expected value.
func (d Dist) Mean() float64 {
	m := 0.0
	for i, x := range d.xs {
		m += x * d.ps[i]
	}
	return m
}

// Variance returns the variance.
func (d Dist) Variance() float64 {
	m := d.Mean()
	v := 0.0
	for i, x := range d.xs {
		dx := x - m
		v += dx * dx * d.ps[i]
	}
	return v
}

// Std returns the standard deviation.
func (d Dist) Std() float64 { return math.Sqrt(d.Variance()) }

// Min returns the smallest support value (best case).
func (d Dist) Min() float64 {
	if d.IsZero() {
		return 0
	}
	return d.xs[0]
}

// Max returns the largest support value. For an energy interface this is
// the worst-case energy consumption, the quantity §4.1's upper-bound
// (spec) interfaces constrain.
func (d Dist) Max() float64 {
	if d.IsZero() {
		return 0
	}
	return d.xs[len(d.xs)-1]
}

// Quantile returns the smallest support value x with P[X <= x] >= q.
// q is clamped to [0,1].
func (d Dist) Quantile(q float64) float64 {
	if d.IsZero() {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	acc := 0.0
	for i, p := range d.ps {
		acc += p
		if acc >= q-probEps {
			return d.xs[i]
		}
	}
	return d.xs[len(d.xs)-1]
}

// Sample draws one value from d using rng.
func (d Dist) Sample(rng *rand.Rand) float64 {
	if d.IsZero() {
		return 0
	}
	u := rng.Float64()
	acc := 0.0
	for i, p := range d.ps {
		acc += p
		if u < acc {
			return d.xs[i]
		}
	}
	return d.xs[len(d.xs)-1]
}

// Add returns the distribution of X+Y for independent X~d, Y~o
// (discrete convolution, computed by a sorted lane merge rather than a
// build-and-sort of the full product). The result support is capped at
// MaxSupport.
func (d Dist) Add(o Dist) Dist {
	if d.IsZero() {
		return o
	}
	if o.IsZero() {
		return d
	}
	return convolve(d, o).compact(MaxSupport)
}

// AddConst returns the distribution of X+c.
func (d Dist) AddConst(c float64) Dist {
	if d.IsZero() {
		return Point(c)
	}
	out := Dist{xs: make([]float64, len(d.xs)), ps: make([]float64, len(d.ps))}
	for i := range d.xs {
		out.xs[i] = d.xs[i] + c
	}
	copy(out.ps, d.ps)
	return out
}

// Scale returns the distribution of k*X. Scaling by a negative k reverses
// the support order, which is handled.
func (d Dist) Scale(k float64) Dist {
	if d.IsZero() {
		return d
	}
	values := make([]float64, len(d.xs))
	for i, x := range d.xs {
		values[i] = k * x
	}
	return Categorical(values, d.ps) // Categorical only reads probs
}

// Map returns the distribution of f(X). Non-monotone f is fine; equal
// outputs are merged.
func (d Dist) Map(f func(float64) float64) Dist {
	if d.IsZero() {
		return d
	}
	values := make([]float64, len(d.xs))
	for i, x := range d.xs {
		values[i] = f(x)
	}
	return Categorical(values, d.ps)
}

// Mix returns the mixture distribution choosing from dists with the given
// weights. Weights are normalized; they must be non-negative and not all
// zero. It panics on length mismatch or empty input.
func Mix(weights []float64, dists []Dist) Dist {
	if len(weights) != len(dists) {
		panic("energy: Mix weights/dists length mismatch")
	}
	if len(dists) == 0 {
		panic("energy: Mix with no components")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("energy: Mix weight %v invalid", w))
		}
		total += w
	}
	if total <= 0 {
		panic("energy: Mix weights sum to zero")
	}
	// Components are already sorted, so the mixture is a k-way merge over
	// the non-zero-weight components rather than a build-and-sort.
	ws := make([]float64, 0, len(dists))
	comps := make([]Dist, 0, len(dists))
	for k, dk := range dists {
		if w := weights[k] / total; w != 0 {
			ws = append(ws, w)
			comps = append(comps, dk)
		}
	}
	return mergeComponents(ws, comps).compact(MaxSupport)
}

// Repeat returns the distribution of the sum of n independent copies of d.
// It uses doubling so the cost is O(log n) convolutions. n must be >= 0;
// Repeat(0) is Point(0).
func (d Dist) Repeat(n int) Dist {
	if n < 0 {
		panic("energy: Repeat with negative count")
	}
	result := Point(0)
	base := d
	for n > 0 {
		if n&1 == 1 {
			result = result.Add(base)
		}
		n >>= 1
		if n > 0 {
			base = base.Add(base)
		}
	}
	return result
}

// compact merges adjacent support points (weighted by probability) until
// the support size is at most limit. Merging adjacent points minimizes the
// introduced error for sorted supports. Smallest gap merges first (ties
// toward the left), via the O(n log n) pair heap in kernels.go.
func (d Dist) compact(limit int) Dist {
	if len(d.xs) <= limit {
		return d
	}
	xs := append([]float64(nil), d.xs...)
	ps := append([]float64(nil), d.ps...)
	xs, ps = compactMerge(xs, ps, limit)
	return Dist{xs: xs, ps: ps}
}

// TotalProb returns the sum of the probability masses (≈1); exposed for
// invariant checking in tests.
func (d Dist) TotalProb() float64 {
	t := 0.0
	for _, p := range d.ps {
		t += p
	}
	return t
}

// Equal reports whether two distributions have identical supports and
// probabilities within tol.
func (d Dist) Equal(o Dist, tol float64) bool {
	if len(d.xs) != len(o.xs) {
		return false
	}
	for i := range d.xs {
		if math.Abs(d.xs[i]-o.xs[i]) > tol || math.Abs(d.ps[i]-o.ps[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the distribution compactly, e.g. "{0:0.30, 5:0.70}".
// Large supports are summarized by moments.
func (d Dist) String() string {
	if d.IsZero() {
		return "{}"
	}
	if len(d.xs) > 8 {
		return fmt.Sprintf("{n=%d mean=%.4g std=%.3g min=%.4g max=%.4g}",
			len(d.xs), d.Mean(), d.Std(), d.Min(), d.Max())
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range d.xs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g:%.3g", x, d.ps[i])
	}
	b.WriteByte('}')
	return b.String()
}
