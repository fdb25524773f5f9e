package main

// metricDef names one reported figure. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step); the bounds
// live only there.
type metricDef struct{ name, unit, better string }

// e2eDefs are what a caller of the service sees, measured with tracing
// off. failed_share and mismatch_share are not in this list because their
// value is 0 on a good run: they travel as the driver line's failed /
// attempted / correct fields, and any non-zero value fails the run.
var e2eDefs = []metricDef{
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// layerDefs are single layers' figures from the traced run and the stage
// replay. A workload a layer plays no part in reports 0 for it.
var layerDefs = []metricDef{
	{"eisvc.client.encode_ns", "ns", "lower"},
	{"eisvc.client.decode_ns", "ns", "lower"},
	{"eisvc.client.retries", "count", "lower"},
	{"eisvc.client.hedges", "count", "lower"},
	{"transport.tcp_ns", "ns", "lower"},
	{"fleet.router.serve_ns", "ns", "lower"},
	{"fleet.router.hop_ns", "ns", "lower"},
	{"fleet.ring.lookup_ns", "ns", "lower"},
	{"fleet.router.routed", "count", "lower"},
	{"fleet.router.failovers", "count", "lower"},
	{"fleet.router.exhausted", "count", "lower"},
	{"fleet.router.affinity_hits", "count", "higher"},
	{"fleet.peer.lookups", "count", "lower"},
	{"fleet.peer.hits", "count", "higher"},
	{"eisvc.server.serve_ns", "ns", "lower"},
	{"eisvc.codec.decode_request_ns", "ns", "lower"},
	{"eisvc.codec.encode_response_ns", "ns", "lower"},
	{"eisvc.memo.get_ns", "ns", "lower"},
	{"eisvc.memo.put_ns", "ns", "lower"},
	{"eisvc.ledger.record_ns", "ns", "lower"},
	{"eisvc.memo.hit_ratio", "ratio", "higher"},
	{"eisvc.memo.evictions", "count", "lower"},
	{"eisvc.evaluations", "count", "lower"},
	{"eisvc.coalesced", "count", "higher"},
	{"eisvc.shed_queue_full", "count", "lower"},
	{"eisvc.shed_deadline", "count", "lower"},
	{"eisvc.snapshot.save_ms", "ms", "lower"},
	{"eisvc.snapshot.load_ms", "ms", "lower"},
	{"core.eval_ns", "ns", "lower"},
	{"core.eval_allocs", "count", "lower"},
	{"core.interpret_ns", "ns", "lower"},
	{"core.mc.samples_per_s", "1/s", "higher"},
	{"core.layer.hit_ratio", "ratio", "higher"},
	{"opt.compile_ns", "ns", "lower"},
	{"opt.first_eval_ns", "ns", "lower"},
	{"opt.compiled_evals", "count", "higher"},
	{"opt.compile_fallbacks", "count", "lower"},
	{"eil.parse_ns", "ns", "lower"},
	{"eil.compile_ns", "ns", "lower"},
	{"energy.dist.support_len", "count", "lower"},
	{"energy.dist.from_sorted_ns", "ns", "lower"},
	{"energy.dist.add_ns", "ns", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"budget.residual_share", "ratio", "lower"},
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

var (
	e2eNames   = names(e2eDefs)
	layerNames = names(layerDefs)
)
