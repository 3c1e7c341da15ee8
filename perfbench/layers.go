package main

// metricSpec names one reported metric with its unit and the direction
// that counts as better.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run, as a user of the stack sees
// them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"pair_p50_us", "us", "lower"},
	{"topk_p50_us", "us", "lower"},
	{"relevance_p50_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"op_p90_us", "us", "lower"},
	{"heap_live_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run. Each is reported by every
// workload, since every workload runs reads of all three kinds and writes.
var perLayer = []metricSpec{
	{"metapath.parse_ns", "ns", "lower"},
	{"core.pair_ns", "ns", "lower"},
	{"core.pair_allocs", "count", "lower"},
	{"core.topk_ns", "ns", "lower"},
	{"core.topk_allocs", "count", "lower"},
	{"core.plan.pair-vectors", "count", "lower"},
	{"core.plan.single-vs-matrix", "count", "lower"},
	{"core.plan.all-pairs", "count", "higher"},
	{"core.plan.subset-chain", "count", "lower"},
	{"core.plan.monte-carlo", "count", "lower"},
	{"core.plan.topk-approx", "count", "lower"},
	{"core.cache_hits", "count", "higher"},
	{"core.cache_misses", "count", "lower"},
	{"core.chains_cached", "count", "higher"},
	{"core.batch_row_steps", "count", "lower"},
	{"core.batch_naive_row_steps", "count", "lower"},
	{"core.batch_chain_builds", "count", "lower"},
	{"core.precompute_ns", "ns", "lower"},
	{"core.rewarm_ns", "ns", "lower"},
	{"core.rewarm_rebuilt", "count", "lower"},
	{"core.rewarm_carried", "count", "higher"},
	{"sparse.vec_mulmat_ns", "ns", "lower"},
	{"sparse.vec_mulmat_allocs", "count", "lower"},
	{"sparse.flops_per_op", "count", "lower"},
	{"sparse.mat_mul_ns", "ns", "lower"},
	{"relevance.pair_ns", "ns", "lower"},
	{"relevance.paths_scored", "count", "lower"},
	{"hin.load_ns", "ns", "lower"},
	{"hin.apply_ns", "ns", "lower"},
	{"hin.fingerprint_ns", "ns", "lower"},
	{"wal.append_ns", "ns", "lower"},
	{"wal.bytes_per_batch", "B", "lower"},
	{"snapshot.encode_ns", "ns", "lower"},
	{"snapshot.decode_ns", "ns", "lower"},
	{"snapshot.bytes", "B", "lower"},
	{"server.handler_ns", "ns", "lower"},
	{"server.self_ns", "ns", "lower"},
	{"server.allocs_per_req", "count", "lower"},
	{"server.loopback_ns", "ns", "lower"},
	{"server.mutate_ns", "ns", "lower"},
	{"server.follower_catchup_ms", "ms", "lower"},
	{"server.busy_retries", "count", "lower"},
	{"router.hop_ns", "ns", "lower"},
	{"router.retries", "count", "lower"},
	{"router.hedges", "count", "lower"},
	{"router.stale_retries", "count", "lower"},
	{"router.write_ns", "ns", "lower"},
	{"router.write_relay_ns", "ns", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "higher"},
}
