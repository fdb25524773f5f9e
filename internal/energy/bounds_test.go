package energy

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// floatsOf reads b as little-endian float64s; a short tail is dropped.
func floatsOf(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func bytesOf(xs ...float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// outcome runs f and returns its value's bits, or what it panicked with.
func outcome(f func() float64) (bits uint64, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return math.Float64bits(f()), ""
}

// FuzzBounds holds CategoricalMax and CategoricalMin to what they stand
// in for, Categorical(values, probs).Max() and .Min(): the same bits
// (math.Float64bits, so the sign of a zero counts), and a panic exactly
// where Categorical panics, with its message.
func FuzzBounds(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, seed := range []struct{ values, probs []float64 }{
		{[]float64{negZero, 0, -1}, []float64{0.5, 0.25, 0.25}},          // both zeros tie for the max
		{[]float64{0, negZero, 1}, []float64{0.25, 0.5, 0.25}},           // and for the min
		{[]float64{negZero, -2}, []float64{0.5, 0.5}},                    // one zero at the max
		{[]float64{3, 1, 2}, []float64{1e-300 * 1e-300, 5e-324, 1e-310}}, // an underflowed product, subnormal ones
		{[]float64{5, 1, 3, -4}, []float64{0, 0.5, 0.5, 0}},              // p == 0 at both ends
		{[]float64{7}, []float64{1}},                                     // a single point
		{[]float64{2, 2, 2}, []float64{0.2, 0.3, 0.5}},                   // all equal
		{[]float64{math.NaN(), 1}, []float64{0.5, 0.5}},                  // NaN value with p > 0: panics
		{[]float64{math.NaN(), 1}, []float64{0, 1}},                      // NaN value with p == 0: dropped
		{[]float64{1, 2}, []float64{math.NaN(), 1}},                      // NaN p: panics
		{[]float64{1, 2}, []float64{-0.5, 1}},                            // negative p: panics
		{[]float64{1, 2}, []float64{0, negZero}},                         // no mass: panics
		{[]float64{math.Inf(1), math.Inf(-1), 0}, []float64{math.Inf(1), 1, 1}},
		{nil, nil},                      // no support: panics
		{[]float64{1, 2}, []float64{1}}, // mismatched lengths: panics
	} {
		f.Add(bytesOf(seed.values...), bytesOf(seed.probs...))
	}
	// Past 12 points pdqsort reorders ties, so which zero comes first is
	// no longer the first in input order: here a −0 for the max, and in
	// the mirror image a +0 for the min.
	reordered := []float64{0, -1, 0, 0, 0, -1, -1, 0, -1, -3, -1, -1, 0, -1, -1, 0, 0, 0, -1, 0, -1}
	mirror, uniform := make([]float64, len(reordered)), make([]float64, len(reordered))
	for i, x := range reordered {
		if x == -1 {
			reordered[i] = negZero
		}
		mirror[i], uniform[i] = -reordered[i], 1
	}
	f.Add(bytesOf(reordered...), bytesOf(uniform...))
	f.Add(bytesOf(mirror...), bytesOf(uniform...))
	f.Fuzz(func(t *testing.T, vb, pb []byte) {
		values, probs := floatsOf(vb), floatsOf(pb)
		for _, b := range []struct {
			name      string
			scan, all func() float64
		}{
			{"max", func() float64 { return CategoricalMax(values, probs) }, func() float64 { return Categorical(values, probs).Max() }},
			{"min", func() float64 { return CategoricalMin(values, probs) }, func() float64 { return Categorical(values, probs).Min() }},
		} {
			got, gotPanic := outcome(b.scan)
			want, wantPanic := outcome(b.all)
			if got != want || gotPanic != wantPanic {
				t.Errorf("%s of %v / %v: scan %x (panic %q), Categorical %x (panic %q)",
					b.name, values, probs, got, gotPanic, want, wantPanic)
			}
		}
	})
}
