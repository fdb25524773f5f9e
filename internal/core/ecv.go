package core

import (
	"fmt"
	"math/rand"
)

// Weighted is one support point of a discrete distribution over Values.
type Weighted struct {
	V Value
	P float64
}

// ECV is an energy-critical variable (§3): a random variable capturing a
// factor that influences the module's energy but is not part of the
// interface's input — e.g. whether a request hits the cache. Its
// distribution is discrete with finite support so expectations can be
// computed exactly by enumeration.
type ECV struct {
	Name string
	Doc  string
	Dist []Weighted
}

// BoolECV returns an ECV taking true with probability p.
func BoolECV(name string, p float64, doc string) ECV {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("core: BoolECV %q probability %v out of [0,1]", name, p))
	}
	return ECV{
		Name: name,
		Doc:  doc,
		Dist: []Weighted{{Bool(false), 1 - p}, {Bool(true), p}},
	}
}

// NumECV returns an ECV over numeric values with the given probabilities.
func NumECV(name string, values, probs []float64, doc string) ECV {
	if len(values) != len(probs) || len(values) == 0 {
		panic(fmt.Sprintf("core: NumECV %q bad support", name))
	}
	dist := make([]Weighted, len(values))
	total := 0.0
	for _, p := range probs {
		if p < 0 {
			panic(fmt.Sprintf("core: NumECV %q negative probability", name))
		}
		total += p
	}
	if total <= 0 {
		panic(fmt.Sprintf("core: NumECV %q zero total probability", name))
	}
	for i := range values {
		dist[i] = Weighted{Num(values[i]), probs[i] / total}
	}
	return ECV{Name: name, Doc: doc, Dist: dist}
}

// FixedECV returns an ECV concentrated at a single value: useful when the
// factor is known (e.g. set by the resource manager's policy).
func FixedECV(name string, v Value, doc string) ECV {
	return ECV{Name: name, Doc: doc, Dist: []Weighted{{v, 1}}}
}

// validate checks the distribution invariants; it returns an error rather
// than panicking because ECVs may come from parsed EIL source.
func (e ECV) validate() error {
	if e.Name == "" {
		return fmt.Errorf("core: ECV with empty name")
	}
	if len(e.Dist) == 0 {
		return fmt.Errorf("core: ECV %q has empty distribution", e.Name)
	}
	total := 0.0
	for _, w := range e.Dist {
		if w.P < 0 {
			return fmt.Errorf("core: ECV %q has negative probability", e.Name)
		}
		total += w.P
	}
	if total < 1-1e-9 || total > 1+1e-9 {
		return fmt.Errorf("core: ECV %q probabilities sum to %v, want 1", e.Name, total)
	}
	return nil
}

// drawPoint draws the index of one support point of dist. It consumes
// exactly one rng.Float64() and scans the whole distribution,
// zero-probability points included, so that a draw the accumulated
// rounding leaves unclaimed falls to the last point.
func drawPoint(dist []Weighted, rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for x := range dist {
		acc += dist[x].P
		if u < acc {
			return x
		}
	}
	return len(dist) - 1
}

// sample draws one value from the ECV's distribution.
func (e ECV) sample(rng *rand.Rand) Value { return e.Dist[drawPoint(e.Dist, rng)].V }

// WithProb returns a copy of the ECV with the probability of boolean true
// replaced by p; it panics if the ECV is not boolean. This is how resource
// managers specialize an interface's ECVs from configuration (e.g. a cache
// manager computing the expected hit rate from capacity and workload).
func (e ECV) WithProb(p float64) ECV {
	for _, w := range e.Dist {
		if w.V.Kind() != KindBool {
			panic(fmt.Sprintf("core: WithProb on non-boolean ECV %q", e.Name))
		}
	}
	return BoolECV(e.Name, p, e.Doc)
}
