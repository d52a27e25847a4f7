package core

import "corm/internal/metrics"

// Core-layer metrics. These mirror the store's internal atomic counters
// into the process-global registry (each site pays one extra atomic add)
// and add the lifecycle gauges the counters cannot express: live objects,
// live blocks, and slot capacity, whose ratio is the cluster-visible
// occupancy the compaction policy (§3.1.3) acts on. Gauges use deltas
// (Add/Dec), so multiple stores in one process — the test and bench
// topology — sum correctly.
var (
	cmAllocs = metrics.Default().Counter("corm_core_allocs_total",
		"objects allocated")
	cmFrees = metrics.Default().Counter("corm_core_frees_total",
		"objects freed")
	cmReads = metrics.Default().Counter("corm_core_reads_total",
		"RPC-path object reads")
	cmWrites = metrics.Default().Counter("corm_core_writes_total",
		"RPC-path object writes")
	cmCorrections = metrics.Default().Counter("corm_core_ptr_corrections_total",
		"pointer corrections performed (§3.2)")
	cmCorrectionMisses = metrics.Default().Counter("corm_core_ptr_correction_misses_total",
		"pointer corrections that found nothing (stale pointer)")
	cmReleases = metrics.Default().Counter("corm_core_ptr_releases_total",
		"ReleasePtr calls (§3.3)")
	cmVaddrsReused = metrics.Default().Counter("corm_core_vaddrs_reused_total",
		"dissolved block addresses returned to the reuse pool")

	cmCASOps = metrics.Default().Counter("corm_core_cas_total",
		"pushdown compare-and-swap operations")
	cmFetchAdds = metrics.Default().Counter("corm_core_fetchadd_total",
		"pushdown fetch-and-add operations")
	cmCondWrites = metrics.Default().Counter("corm_core_condwrite_total",
		"pushdown conditional writes")
	cmPushdownConflicts = metrics.Default().Counter("corm_core_pushdown_conflicts_total",
		"pushdown conditions that did not hold (CAS/CondWrite)")
	cmScans = metrics.Default().Counter("corm_core_scans_total",
		"pushdown filtered scans started")
	cmScanRecords = metrics.Default().Counter("corm_core_scan_records_total",
		"live records evaluated by filtered scans")
	cmScanMatches = metrics.Default().Counter("corm_core_scan_matches_total",
		"records matched by filtered scan predicates")

	cmCompactRuns = metrics.Default().Counter("corm_compaction_runs_total",
		"CompactClass invocations")
	cmCompactAttempts = metrics.Default().Counter("corm_compaction_pair_attempts_total",
		"merge pairings whose ID sets were compared")
	cmCompactIDConflicts = metrics.Default().Counter("corm_compaction_id_conflicts_total",
		"merge pairings aborted on an object-ID collision (§3.1.2)")
	cmCompactMerges = metrics.Default().Counter("corm_compaction_merges_total",
		"block merges executed")
	cmCompactBlocksFreed = metrics.Default().Counter("corm_compaction_blocks_freed_total",
		"blocks freed by compaction")
	cmCompactObjectsMoved = metrics.Default().Counter("corm_compaction_objects_moved_total",
		"objects relocated by merges (indirect pointers created)")
	cmCandidateOccupancy = metrics.Default().Histogram("corm_compaction_candidate_occupancy_pct",
		"percent occupancy of blocks collected for compaction")
	cmCompactPlannedPairs = metrics.Default().Counter("corm_compaction_planned_pairs_total",
		"merge pairs emitted by the planner (compare with merges for plan decay)")
	cmCompactRevalRejects = metrics.Default().Counter("corm_compaction_reval_rejects_total",
		"planned pairs skipped by executor revalidation (snapshot went stale)")

	cmCompactorCycles = metrics.Default().Counter("corm_compactor_cycles_total",
		"background compactor cycles that ran a policy pass")
	cmCompactorShed = metrics.Default().Counter("corm_compactor_shed_total",
		"compactor cycles skipped by load shedding (op rate above threshold)")
	cmCompactorCycleNs = metrics.Default().Histogram("corm_compactor_cycle_ns",
		"wall-clock nanoseconds per background compaction cycle")
	cmCompactorState = metrics.Default().Gauge("corm_compactor_state",
		"background compactor state: 0 stopped, 1 active, 2 idle backoff, 3 shedding (sums across stores)")

	cmCanaryViolations = metrics.Default().Counter("corm_core_canary_violations_total",
		"slot guard-byte violations detected (memory-safety canaries)")

	cmEvictions = metrics.Default().Counter("corm_tier_evictions_total",
		"blocks spilled out to the tier")
	cmCleanEvictions = metrics.Default().Counter("corm_tier_clean_evictions_total",
		"evictions that skipped the write-back: the tier image was still current (1 - this/evictions = write-back share)")
	cmFaultIns = metrics.Default().Counter("corm_tier_faultins_total",
		"blocks faulted back in from the tier")
	cmFaultInNs = metrics.Default().Histogram("corm_tier_faultin_ns",
		"wall-clock nanoseconds per block fault-in")
	cmTierReclaims = metrics.Default().Counter("corm_tier_reclaim_runs_total",
		"budget-pressure reclaim passes (Phys allocations over budget)")
	cmTierPrefetches = metrics.Default().Counter("corm_tier_prefetches_total",
		"MTT prefetches issued after hot-block fault-ins (ibv_advise_mr)")
	cmEvictedBlocks = metrics.Default().Gauge("corm_tier_evicted_blocks",
		"blocks currently spilled to the tier")

	cmObjectsLive = metrics.Default().Gauge("corm_core_objects_live",
		"currently allocated objects")
	cmBlocksLive = metrics.Default().Gauge("corm_core_blocks_live",
		"currently mapped blocks")
	cmSlotsCapacity = metrics.Default().Gauge("corm_core_slots_capacity",
		"total object slots across mapped blocks (objects_live / this = occupancy)")
	cmBytesLive = metrics.Default().Gauge("corm_core_block_bytes_live",
		"bytes of mapped block memory")
)
