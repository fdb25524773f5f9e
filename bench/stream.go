package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"energyclarity/internal/core"
)

// Registered interface names of the three fixture stacks. Their answers
// differ in size, which is what the codec, memo and ledger are sensitive to.
const (
	ifaceHybrid = "ml_webservice" // Fig. 1 EIL over a Go-native cnn_forward: 3 support points, interpreter + layer cache
	ifaceGPT2   = "gpt2_stack"    // pure EIL, compiled: 4 support points
	ifaceMoE    = "moe_stack"     // pure EIL, compiled: ~323 support points
)

// call is one evaluation: what a client asks and what the oracle repeats.
type call struct {
	iface  string
	method string
	args   []core.Value
	opts   core.EvalOptions
}

// shape is a call template whose position in the stream makes it unique,
// so the memo can never answer it.
type shape struct {
	call
	vary func(c call, g uint64) call
}

// stream is a workload's request sequence. It is a pure function of the
// seed: position g always holds the same evaluation, however fast the
// clients pull. order repeats after len(order) positions; unique shapes
// keep changing with g, so a wrap never produces a repeat.
type stream struct {
	warm  []call  // canonical classes: answered from the memo once warm
	fresh []shape // unique-per-position shapes
	order []int32 // >= 0: warm[i]; < 0: fresh[-i-1]
	batch int     // evaluations per wire request; 1 means /v1/eval
}

// streamLen is the period of order. It is longer than the default memo
// capacity, so even a wrapped warm-free stream could not hit.
const streamLen = 1 << 16

// at returns evaluation g and its warm class, or -1 for a unique one.
func (s *stream) at(g uint64) (call, int) {
	i := s.order[g%uint64(len(s.order))]
	if i >= 0 {
		return s.warm[i], int(i)
	}
	sh := s.fresh[-i-1]
	return sh.vary(sh.call, g), -1
}

// uniq maps a position to a distinct fraction in (0, 1); exact for every
// position a run can reach (2^26 positions is hours of hot_zipf).
func uniq(g uint64) float64 { return float64(g%(1<<26)+1) / (1 << 26) }

func varyArg0(c call, g uint64) call {
	n, _ := c.args[0].AsNum()
	args := append([]core.Value(nil), c.args...)
	args[0] = core.Num(n + uniq(g))
	c.args = args
	return c
}

func varySeed(c call, g uint64) call {
	c.opts.Seed += int64(g) + 1 // the shape's own seed is the warm-up request
	return c
}

func imageArg(pixels float64, zeros core.Value) core.Value {
	return core.Record(map[string]core.Value{
		"image": core.Str("img"), "pixels": core.Num(pixels), "zeros": zeros,
	})
}

// classCall builds warm class c. Classes rotate over the three stacks by
// index, so the share of traffic each stack gets is set by the rank
// weights alone and does not move with the seed; the seed picks the
// arguments. The class index is folded into one argument so no two
// classes share a memo key.
func classCall(r *rand.Rand, c int) call {
	switch c % 3 {
	case 0:
		px := float64(320*240 + 4096*c + r.Intn(4096))
		return call{ifaceHybrid, "handle", []core.Value{imageArg(px, core.Num(math.Floor(px/8)))}, core.Expected()}
	case 1:
		return call{ifaceGPT2, "generate", []core.Value{core.Int(16 + 2*c + r.Intn(2)), core.Int(2 + r.Intn(6))}, core.Expected()}
	default:
		return call{ifaceMoE, "energy", []core.Value{core.Int(1 + c), core.Int(r.Intn(4)), core.Int(1 + r.Intn(8))}, core.Expected()}
	}
}

func classSet(r *rand.Rand, n int) []call {
	out := make([]call, n)
	for c := range out {
		out[c] = classCall(r, c)
	}
	return out
}

// hotZipf: Zipf(s=1.2) over 256 warm classes, rank = class index.
func hotZipf(seed int64) *stream {
	r := rand.New(rand.NewSource(seed))
	s := &stream{warm: classSet(r, 256), order: make([]int32, streamLen), batch: 1}
	z := rand.NewZipf(r, 1.2, 1, uint64(len(s.warm)-1))
	for i := range s.order {
		s.order[i] = int32(z.Uint64())
	}
	return s
}

// coldExact: unique arguments on every request, modes expected / worst /
// best over gpt2.generate, moe.energy and moe.latency.
func coldExact(seed int64) *stream {
	r := rand.New(rand.NewSource(seed))
	s := &stream{order: make([]int32, streamLen), batch: 1}
	modes := []core.EvalOptions{core.Expected(), core.WorstCase(), core.BestCase()}
	for _, opts := range modes {
		for k := 0; k < 4; k++ {
			s.fresh = append(s.fresh,
				shape{call{ifaceGPT2, "generate", []core.Value{core.Int(16 + r.Intn(496)), core.Int(4 + r.Intn(5))}, opts}, varyArg0},
				shape{call{ifaceMoE, "energy", []core.Value{core.Int(1 + r.Intn(63)), core.Int(r.Intn(4)), core.Int(1 + r.Intn(8))}, opts}, varyArg0},
				shape{call{ifaceMoE, "latency", []core.Value{core.Int(1 + r.Intn(63)), core.Int(r.Intn(4)), core.Int(1 + r.Intn(8))}, opts}, varyArg0},
			)
		}
	}
	fillFresh(r, s)
	return s
}

// mcSamples is the Monte Carlo sample count of every mc_sample request.
const mcSamples = 4096

// mcSample: Monte Carlo with a fresh RNG seed per request; even shapes run
// on the hybrid tree (interpreter + layer cache), odd ones on compiled MoE.
func mcSample(seed int64) *stream {
	r := rand.New(rand.NewSource(seed))
	s := &stream{order: make([]int32, streamLen), batch: 1}
	base := seed << 32
	for k := 0; k < 8; k++ {
		px := float64(320*240 + r.Intn(1<<20))
		s.fresh = append(s.fresh,
			shape{call{ifaceHybrid, "handle", []core.Value{imageArg(px, core.Num(math.Floor(px/8)))}, core.MonteCarlo(mcSamples, base)}, varySeed},
			shape{call{ifaceMoE, "energy", []core.Value{core.Int(1 + r.Intn(63)), core.Int(r.Intn(4)), core.Int(1 + r.Intn(8))}, core.MonteCarlo(mcSamples, base)}, varySeed},
		)
	}
	// Strict alternation keeps the half/half split exact in every window.
	for i := range s.order {
		k := 2*r.Intn(len(s.fresh)/2) + i%2
		s.order[i] = int32(-k - 1)
	}
	return s
}

// batchItems is the size of one batch_sched wire request.
const batchItems = 256

// batchSched: 256-item batches, 90% drawn uniformly (so with in-batch
// duplicates) from a 192-class warm set, 10% unique. The unique tenth sits
// at fixed slots of every batch so each batch carries the same number of
// evaluations and peer probes.
func batchSched(seed int64) *stream {
	r := rand.New(rand.NewSource(seed))
	s := &stream{warm: classSet(r, 192), order: make([]int32, streamLen), batch: batchItems}
	// The unique items are compiled and cheap, so the batch path and not
	// their evaluation is most of a batch; and none runs on the hybrid
	// tree, where unique arguments would keep growing the layer cache for
	// most of a window and the workload would never be in a steady state.
	for k := 0; k < 4; k++ {
		s.fresh = append(s.fresh,
			shape{call{ifaceGPT2, "layer_decode", []core.Value{core.Int(16 + r.Intn(2032))}, core.Expected()}, varyArg0},
			shape{call{ifaceGPT2, "decode_token", []core.Value{core.Int(16 + r.Intn(2032))}, core.Expected()}, varyArg0},
			shape{call{ifaceMoE, "latency", []core.Value{core.Int(1 + r.Intn(63)), core.Int(r.Intn(4)), core.Int(1 + r.Intn(8))}, core.Expected()}, varyArg0},
		)
	}
	for i := range s.order {
		if i%batchItems%10 == 9 {
			s.order[i] = int32(-r.Intn(len(s.fresh)) - 1)
		} else {
			s.order[i] = int32(r.Intn(len(s.warm)))
		}
	}
	return s
}

func fillFresh(r *rand.Rand, s *stream) {
	for i := range s.order {
		s.order[i] = int32(-r.Intn(len(s.fresh)) - 1)
	}
}

// digest is an FNV-1a fold of the first n evaluations as a client would
// send them: two streams agree on it exactly when they ask the same
// questions in the same order.
func (s *stream) digest(n int) uint64 {
	h := fnv.New64a()
	for g := 0; g < n; g++ {
		c, _ := s.at(uint64(g))
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|", c.iface, c.method, c.opts.Mode, c.opts.Samples, c.opts.Seed)
		for _, a := range c.args {
			fmt.Fprintf(h, "%s;", a.Key())
		}
	}
	return h.Sum64()
}
