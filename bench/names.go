package main

// The metric names, units and bounds. BENCHMARK.json at the repository root
// repeats them; bench_test.go fails when the two differ.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share by which it may get worse
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_p99_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"write_p99_us", "us", "lower", 0.25},
	{"direct_read_p50_us", "us", "lower", 0.25},
	{"direct_read_p99_us", "us", "lower", 0.25},
	{"hot_read_p999_us", "us", "lower", 0.25},
	{"active_per_live", "B/B", "lower", 0.10},
}

// perLayer lists every per-layer metric with where it comes from: a stacked
// probe, the spans of the traced run, or a counter delta over an untraced
// window. A metric a workload does not measure is reported as 0 there.
var perLayer = []struct{ name, unit, better, source string }{
	// Stacked probes (rpc_point; tier.* on tiered_zipf; compact on churn_compact).
	{"core.read_ns", "ns", "lower", "probe"},
	{"core.write_ns", "ns", "lower", "probe"},
	{"core.alloc_free_ns", "ns", "lower", "probe"},
	{"core.fetch_add_ns", "ns", "lower", "probe"},
	{"rnic.oneside_read_ns", "ns", "lower", "probe"},
	{"rpc.read_self_ns", "ns", "lower", "probe"},
	{"rpc.write_self_ns", "ns", "lower", "probe"},
	{"rpc.batch128_subop_ns", "ns", "lower", "probe"},
	{"transport.tcp_call_self_ns", "ns", "lower", "probe"},
	{"transport.shm_call_self_ns", "ns", "lower", "probe"},
	{"transport.tcp_dma_self_ns", "ns", "lower", "probe"},
	{"client.read_self_ns", "ns", "lower", "probe"},
	{"client.direct_read_self_ns", "ns", "lower", "probe"},
	{"tier.faultin_ns", "ns", "lower", "probe"},
	{"tier.spill_ns", "ns", "lower", "probe"},
	{"core.compact_merge_us", "us", "lower", "probe"},
	{"bench.read_budget_residual_share", "share", "lower", "probe"},
	// Spans of the traced run.
	{"cluster.get_self_us", "us", "lower", "span"},
	{"cluster.put_self_us", "us", "lower", "span"},
	{"cluster.get_backend_calls", "count", "lower", "span"},
	{"cluster.put_backend_calls", "count", "lower", "span"},
	{"cluster.put_slowest_child_us", "us", "lower", "span"},
	{"client.multi_read_subop_ns", "ns", "lower", "span"},
	{"client.read_async_subop_ns", "ns", "lower", "span"},
	{"client.fetch_add_async_subop_ns", "ns", "lower", "span"},
	{"client.multi_write_subop_ns", "ns", "lower", "span"},
	{"bench.trace_overhead_share", "share", "lower", "span"},
	// Counter deltas over an untraced window.
	{"transport.flushes_per_op", "1/op", "lower", "counter"},
	{"transport.frames_per_flush", "count", "higher", "counter"},
	{"transport.bytes_out_per_op", "B/op", "lower", "counter"},
	{"transport.ring_overflows", "count", "lower", "counter"},
	{"transport.broken_channels", "count", "lower", "counter"},
	{"transport.call_timeouts", "count", "lower", "counter"},
	{"rpc.requests_per_op", "1/op", "lower", "counter"},
	{"rpc.token_waits_per_kop", "1/kop", "lower", "counter"},
	{"rpc.token_wait_p99_ns", "ns", "lower", "counter"},
	{"rpc.batch_workers_mean", "count", "higher", "counter"},
	{"rpc.shed", "count", "lower", "counter"},
	{"rpc.dedup_replays", "count", "lower", "counter"},
	{"client.async_flush_size_mean", "count", "higher", "counter"},
	{"client.rpc_retries", "count", "lower", "counter"},
	{"client.inconsistent_retries", "count", "lower", "counter"},
	{"client.scan_fallbacks", "count", "lower", "counter"},
	{"client.pushdown_retries", "count", "lower", "counter"},
	{"cluster.fanout_width_mean", "count", "lower", "counter"},
	{"cluster.write_concern_misses", "count", "lower", "counter"},
	{"cluster.failovers", "count", "lower", "counter"},
	{"cluster.stale_reads", "count", "lower", "counter"},
	{"cluster.read_repairs", "count", "lower", "counter"},
	{"core.corrections_per_kread", "1/kop", "lower", "counter"},
	{"core.correction_misses", "count", "lower", "counter"},
	{"core.compacting_retries_per_kop", "1/kop", "lower", "counter"},
	{"core.compact_merges", "count", "higher", "counter"},
	{"core.compact_blocks_freed", "count", "higher", "counter"},
	{"core.compact_conflict_share", "share", "lower", "counter"},
	{"core.compact_reval_rejects", "count", "lower", "counter"},
	{"core.compactor_busy_share", "share", "lower", "counter"},
	{"core.moved_bytes_per_freed_byte", "B/B", "lower", "counter"},
	{"core.vaddrs_reused", "count", "higher", "counter"},
	{"alloc.frag_ratio_end", "B/B", "lower", "counter"},
	{"mem.active_bytes_peak", "B", "lower", "counter"},
	{"mem.active_bytes_end", "B", "lower", "counter"},
	{"tier.faultins_per_kop", "1/kop", "lower", "counter"},
	{"tier.evictions_per_kop", "1/kop", "lower", "counter"},
	{"tier.faultin_p50_us", "us", "lower", "counter"},
	{"tier.faultin_p99_us", "us", "lower", "counter"},
	{"tier.spilled_bytes_per_op", "B/op", "lower", "counter"},
	{"tier.hot_slow_share", "share", "lower", "counter"},
	{"rnic.cache_hit_share", "share", "higher", "counter"},
	{"rnic.odp_faults_per_kop", "1/kop", "lower", "counter"},
	{"rnic.host_faults_per_kop", "1/kop", "lower", "counter"},
	{"rnic.qp_breaks", "count", "lower", "counter"},
	{"runtime.allocs_per_op", "1/op", "lower", "counter"},
	{"runtime.gc_pause_ms", "ms", "lower", "counter"},
	{"runtime.heap_peak_mb", "MB", "lower", "counter"},
	// The load loop's own view of the same untraced window: the true p99s,
	// which batch_pipeline and churn_compact cannot carry end to end, and the
	// p99 of hot reads, which sits on the knee between resident and faulted
	// reads on tiered_zipf (end to end it is the p99.9, past the knee).
	{"bench.read_p99_us", "us", "lower", "counter"},
	{"bench.write_p99_us", "us", "lower", "counter"},
	{"bench.hot_read_p99_us", "us", "lower", "counter"},
}
