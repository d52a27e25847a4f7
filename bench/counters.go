package main

import (
	"runtime"
	"time"

	"corm/internal/metrics"
)

// Counter deltas: every layer already exports counters into the process
// registry; the benchmark reads them before and after an untraced window.

// windowHists are the registry histograms whose window view the benchmark
// reports. They are reset at the window's start, because a histogram
// snapshot cannot be subtracted from another.
var windowHists = []string{
	"corm_rpc_token_wait_ns", "corm_rpc_batch_workers", "corm_client_async_flush_size",
	"corm_cluster_fanout_width", "corm_compactor_cycle_ns", "corm_tier_faultin_ns",
}

type counterSnap struct {
	vals    map[string]int64
	hists   map[string]*metrics.HistSnapshot
	spilled int64 // tier bytes spilled, summed over the instance's stores
	copied  int64 // churn_compact: bytes the compactor copied ...
	freed   int64 // ... and bytes it gave back
	mem     runtime.MemStats
}

func resetWindowHists() {
	for _, name := range windowHists {
		metrics.Default().Histogram(name, "").Reset()
	}
}

func snapCounters(inst instance) *counterSnap {
	s := &counterSnap{vals: make(map[string]int64), hists: make(map[string]*metrics.HistSnapshot)}
	for _, m := range metrics.Default().Snapshot() {
		if m.Hist != nil {
			s.hists[m.Name] = m.Hist
		} else {
			s.vals[m.Name] = m.Value
		}
	}
	for _, st := range inst.stores() {
		if r := st.Residency(); r != nil {
			s.spilled += r.Stats().BytesSpilled
		}
	}
	if c, ok := inst.(*churnInst); ok {
		s.copied, s.freed = c.tally.copiedB.Load(), c.tally.freedByte.Load()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// windowFacts is what the load loop itself observed in the window.
type windowFacts struct {
	sum        *summary
	wall       time.Duration
	activePeak float64
	activeEnd  float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerFromCounters turns two snapshots into the counter-sourced per-layer
// metrics. Transport counters count both ends of the loopback connection,
// since client and server share the process.
func layerFromCounters(inst instance, a, b *counterSnap, w windowFacts, out map[string]float64) {
	d := func(name string) float64 { return float64(b.vals[name] - a.vals[name]) }
	ops := float64(w.sum.totalOps())
	perOp := func(v float64) float64 { return ratio(v, ops) }
	perKop := func(v float64) float64 { return ratio(v*1000, ops) }
	histMean := func(name string) float64 {
		h := b.hists[name]
		if h == nil {
			return 0
		}
		return ratio(float64(h.Sum), float64(h.Count))
	}
	histQ := func(name string, q float64) float64 {
		h := b.hists[name]
		if h == nil {
			return 0
		}
		return float64(h.Quantile(q))
	}

	out["transport.flushes_per_op"] = perOp(d("corm_transport_flushes_total"))
	out["transport.frames_per_flush"] = ratio(d("corm_transport_frames_out_total"), d("corm_transport_flushes_total"))
	out["transport.bytes_out_per_op"] = perOp(d("corm_transport_bytes_out_total"))
	out["transport.ring_overflows"] = d("corm_transport_ring_overflows_total")
	out["transport.broken_channels"] = d("corm_transport_broken_channels_total")
	out["transport.call_timeouts"] = d("corm_transport_call_timeouts_total")

	out["rpc.requests_per_op"] = perOp(d("corm_rpc_requests_total"))
	out["rpc.token_waits_per_kop"] = perKop(d("corm_rpc_token_waits_total"))
	out["rpc.token_wait_p99_ns"] = histQ("corm_rpc_token_wait_ns", 0.99)
	out["rpc.batch_workers_mean"] = histMean("corm_rpc_batch_workers")
	out["rpc.shed"] = d("corm_rpc_shed_total")
	out["rpc.dedup_replays"] = d("corm_rpc_dedup_replays_total")

	out["client.async_flush_size_mean"] = histMean("corm_client_async_flush_size")
	out["client.rpc_retries"] = d("corm_client_rpc_retries_total")
	out["client.inconsistent_retries"] = d("corm_client_inconsistent_retries_total")
	out["client.scan_fallbacks"] = d("corm_client_scan_fallbacks_total")
	out["client.pushdown_retries"] = d("corm_client_pushdown_retries_total")

	out["cluster.fanout_width_mean"] = histMean("corm_cluster_fanout_width")
	out["cluster.write_concern_misses"] = d("corm_cluster_write_concern_misses_total")
	out["cluster.failovers"] = d("corm_cluster_failovers_total")
	out["cluster.stale_reads"] = d("corm_cluster_stale_replica_reads_total")
	out["cluster.read_repairs"] = d("corm_cluster_read_repair_triggers_total")

	out["core.corrections_per_kread"] = ratio(d("corm_core_ptr_corrections_total")*1000, d("corm_core_reads_total"))
	out["core.correction_misses"] = d("corm_core_ptr_correction_misses_total")
	out["core.compacting_retries_per_kop"] = perKop(float64(w.sum.retry))
	out["core.compact_merges"] = d("corm_compaction_merges_total")
	out["core.compact_blocks_freed"] = d("corm_compaction_blocks_freed_total")
	out["core.compact_conflict_share"] = ratio(d("corm_compaction_id_conflicts_total"), d("corm_compaction_pair_attempts_total"))
	out["core.compact_reval_rejects"] = d("corm_compaction_reval_rejects_total")
	if h := b.hists["corm_compactor_cycle_ns"]; h != nil {
		out["core.compactor_busy_share"] = ratio(float64(h.Sum), float64(w.wall))
	}
	out["core.moved_bytes_per_freed_byte"] = ratio(float64(b.copied-a.copied), float64(b.freed-a.freed))
	out["core.vaddrs_reused"] = d("corm_core_vaddrs_reused_total")

	var granted, used int64
	for _, st := range inst.stores() {
		for c := range st.Config().Classes {
			f := st.Fragmentation(c)
			granted += f.GrantedBytes
			used += f.UsedBytes
		}
	}
	out["alloc.frag_ratio_end"] = ratio(float64(granted), float64(used))
	out["mem.active_bytes_peak"] = w.activePeak
	out["mem.active_bytes_end"] = w.activeEnd

	out["tier.faultins_per_kop"] = perKop(d("corm_tier_faultins_total"))
	out["tier.evictions_per_kop"] = perKop(d("corm_tier_evictions_total"))
	out["tier.faultin_p50_us"] = histQ("corm_tier_faultin_ns", 0.50) / 1e3
	out["tier.faultin_p99_us"] = histQ("corm_tier_faultin_ns", 0.99) / 1e3
	out["tier.spilled_bytes_per_op"] = perOp(float64(b.spilled - a.spilled))
	if b.vals["corm_tier_faultins_total"] > a.vals["corm_tier_faultins_total"] {
		out["tier.hot_slow_share"] = ratio(float64(w.sum.hotSlow), float64(w.sum.hot))
	}

	hits, misses := d("corm_rnic_cache_hits_total"), d("corm_rnic_cache_misses_total")
	out["rnic.cache_hit_share"] = ratio(hits, hits+misses)
	out["rnic.odp_faults_per_kop"] = perKop(d("corm_rnic_odp_faults_total"))
	out["rnic.host_faults_per_kop"] = perKop(d("corm_rnic_host_faults_total"))
	out["rnic.qp_breaks"] = d("corm_rnic_qp_breaks_total")

	out["runtime.allocs_per_op"] = perOp(float64(b.mem.Mallocs - a.mem.Mallocs))
	out["runtime.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	out["runtime.heap_peak_mb"] = float64(b.mem.HeapSys) / 1e6
}
