package autoopt

import (
	"context"
	"fmt"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
)

// CoreEvaluator sweeps an in-process interface: each configuration's
// knob vector becomes the argument list of energyMethod (objective: the
// distribution's mean, J/request) and latencyMethod (objective: the
// distribution's exact p99, ms/request). This is the offline path behind
// `eic optimize`; FleetEvaluator is the served one.
func CoreEvaluator(iface *core.Interface, energyMethod, latencyMethod string, opts core.EvalOptions) Evaluator {
	return func(ctx context.Context, space Space, grid [][]float64) ([]Sample, error) {
		out := make([]Sample, len(grid))
		for i, cfg := range grid {
			args := numArgs(cfg)
			ed, err := iface.EvalCtx(ctx, energyMethod, args, opts)
			if err != nil {
				return nil, fmt.Errorf("autoopt: %s.%s%v: %w", iface.Name(), energyMethod, cfg, err)
			}
			ld, err := iface.EvalCtx(ctx, latencyMethod, args, opts)
			if err != nil {
				return nil, fmt.Errorf("autoopt: %s.%s%v: %w", iface.Name(), latencyMethod, cfg, err)
			}
			out[i] = Sample{EnergyJ: ed.Mean(), LatencyMs: ld.Quantile(0.99), Evals: 2}
		}
		return out, nil
	}
}

// FleetEvaluator sweeps an interface registered on a daemon or behind a
// fleet router: the Pareto math stays local and only the evaluations are
// bought, as canonicalized /v1/evalbatch items — a fleet client, like
// internal/schedsvc's cost model. Each configuration costs one
// energyMethod and one latencyMethod item, and the sweep goes as one
// EvalBatchCtx call, retried and hedged per c's policy like any batch.
// Per-item failures are fatal to the sweep — an exact frontier cannot be
// fit over partial samples. Items a cache answered (memo, batch dedup,
// coalesced, or peer) count as memo-served.
func FleetEvaluator(c *eisvc.Client, name, energyMethod, latencyMethod string, opts core.EvalOptions) Evaluator {
	return func(ctx context.Context, _ Space, grid [][]float64) ([]Sample, error) {
		out := make([]Sample, len(grid))
		reqs := make([]eisvc.EvalRequest, 0, 2*len(grid))
		for _, cfg := range grid {
			args := numArgs(cfg)
			reqs = append(reqs,
				c.EvalRequestFor(name, energyMethod, args, opts),
				c.EvalRequestFor(name, latencyMethod, args, opts))
		}
		items, err := c.EvalBatchCtx(ctx, reqs)
		if err != nil {
			return nil, err
		}
		for idx := range items {
			it := &items[idx]
			if it.Error != "" {
				return nil, fmt.Errorf("autoopt: sweep item %s.%s: %d %s", it.Interface, it.Method, it.Status, it.Error)
			}
			if it.Dist == nil {
				return nil, fmt.Errorf("autoopt: sweep item %s.%s: no distribution", it.Interface, it.Method)
			}
			d, err := it.Dist.Dist()
			if err != nil {
				return nil, fmt.Errorf("autoopt: malformed distribution from daemon: %w", err)
			}
			s := &out[idx/2]
			s.Evals++
			if it.Cached || it.Deduped || it.Coalesced || it.Peer {
				s.MemoServed++
			}
			if idx%2 == 0 {
				s.EnergyJ = d.Mean()
			} else {
				s.LatencyMs = d.Quantile(0.99)
			}
		}
		return out, nil
	}
}

// numArgs turns one grid configuration into evaluation arguments.
func numArgs(cfg []float64) []core.Value {
	args := make([]core.Value, len(cfg))
	for j, v := range cfg {
		args[j] = core.Num(v)
	}
	return args
}
