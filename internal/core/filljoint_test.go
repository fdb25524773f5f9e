package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestFillJointMatchesDivMod holds the odometer to the loop it replaced:
// over random spaces of 0–6 dimensions of 1–4 points each, with no table,
// a table over a random subset of the dimensions, and a table over all of
// them, every point's probability is the bits the per-point products gave
// and its value comes from the table entry the per-point digits pick.
func TestFillJointMatchesDivMod(t *testing.T) {
	rng := rand.New(rand.NewSource(20261004))
	for trial := 0; trial < 2000; trial++ {
		dims := make([]freeDim, rng.Intn(7))
		for k := range dims {
			ws := make([]Weighted, 1+rng.Intn(4))
			for x := range ws {
				ws[x] = Weighted{V: Int(x), P: rng.Float64()}
			}
			dims[k] = freeDim{k: k, ws: ws}
		}
		total := setStrides(dims)

		var obs []freeDim
		var table []float64
		if mode := trial % 3; mode != 0 {
			for k := range dims {
				if mode == 2 || rng.Intn(2) == 0 {
					obs = append(obs, dims[k])
				}
			}
			table = make([]float64, setStrides(obs))
			for at := range table {
				table[at] = float64(at) // the value names the entry it came from
			}
		}

		probs, values := make([]float64, total), make([]float64, total)
		if err := fillJoint(context.Background(), dims, obs, table, values, probs); err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < total; idx++ {
			p := 1.0
			for k := range dims {
				p *= dims[k].ws[(idx/dims[k].stride)%len(dims[k].ws)].P
			}
			if math.Float64bits(probs[idx]) != math.Float64bits(p) {
				t.Fatalf("trial %d point %d of %d: probability %v, want %v", trial, idx, total, probs[idx], p)
			}
			if table == nil {
				continue
			}
			at := 0
			for j := range obs {
				full := &dims[obs[j].k]
				at += ((idx / full.stride) % len(full.ws)) * obs[j].stride
			}
			if values[idx] != float64(at) {
				t.Fatalf("trial %d point %d of %d: read table entry %v, want %d (%d of %d dimensions observed)",
					trial, idx, total, values[idx], at, len(obs), len(dims))
			}
		}
	}
}

// TestFillJointStopsWhenCancelled: the walk polls its context like the loop
// it replaced did.
func TestFillJointStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dims := []freeDim{{k: 0, ws: []Weighted{{V: Int(0), P: 1}}}}
	probs := make([]float64, setStrides(dims))
	if err := fillJoint(ctx, dims, nil, nil, nil, probs); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
