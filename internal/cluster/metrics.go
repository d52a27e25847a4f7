package cluster

import "corm/internal/metrics"

// Cluster-layer metrics: breaker lifecycle, multi-node fan-out shape, and
// the replication/failover machinery. The gauges move by deltas at each
// state transition, so multiple pools/KVs in one process sum correctly.
var (
	cuBreakerTrips = metrics.Default().Counter("corm_cluster_breaker_trips_total",
		"circuit breakers tripped closed->open")
	cuBreakerRecoveries = metrics.Default().Counter("corm_cluster_breaker_recoveries_total",
		"open circuit breakers closed by a successful operation")
	cuOpenBreakers = metrics.Default().Gauge("corm_cluster_open_breakers",
		"nodes currently failing fast behind an open breaker")
	cuFailFasts = metrics.Default().Counter("corm_cluster_fail_fasts_total",
		"operations rejected by an open breaker without touching the wire")
	cuFanOutWidth = metrics.Default().Histogram("corm_cluster_fanout_width",
		"nodes touched by one multi-key operation")
	cuProbeTimeouts = metrics.Default().Counter("corm_cluster_probe_timeouts_total",
		"health probes abandoned after ProbeTimeout")

	// Replication and failover.
	cuReplicatedWrites = metrics.Default().Counter("corm_cluster_replicated_writes_total",
		"replicated KV puts fanned out to a replica set")
	cuWriteConcernMisses = metrics.Default().Counter("corm_cluster_write_concern_misses_total",
		"replicated puts failed because fewer than W replica writes succeeded")
	cuFailovers = metrics.Default().Counter("corm_cluster_failovers_total",
		"reads served by a backup replica after the primary path failed")
	cuFailoverNs = metrics.Default().Histogram("corm_cluster_failover_latency_ns",
		"end-to-end latency of reads that failed over to a backup replica")
	cuStaleReads = metrics.Default().Counter("corm_cluster_stale_replica_reads_total",
		"replica reads rejected by a version-tag mismatch (divergent replica)")
	cuNodeSuspicions = metrics.Default().Counter("corm_cluster_node_suspicions_total",
		"node-wide stale sweeps triggered by one detected divergence")
	cuUnderReplicated = metrics.Default().Gauge("corm_cluster_under_replicated_keys",
		"keys currently below their configured replication factor")
	cuReadRepairTriggers = metrics.Default().Counter("corm_cluster_read_repair_triggers_total",
		"repairs scheduled inline by the read failover and write straggler paths")
	cuReplicasRepaired = metrics.Default().Counter("corm_cluster_replicas_repaired_total",
		"stale replicas re-populated from a live replica")
	cuRepairFails = metrics.Default().Counter("corm_cluster_replica_repair_failures_total",
		"replica repair attempts that failed (node still down, alloc/write error)")
	cuReplicationLagNs = metrics.Default().Histogram("corm_cluster_replication_lag_ns",
		"time a key spent below full replication before being healed")
	cuReplicatorCycles = metrics.Default().Counter("corm_cluster_replicator_cycles_total",
		"background re-replicator cycles executed")
	cuCounterPropagations = metrics.Default().Counter("corm_cluster_counter_propagations_total",
		"replicated KV fetch-adds fanned out past the primary replica")
	cuBlockingLegs = metrics.Default().Counter("corm_cluster_replica_blocking_legs_total",
		"replica writes of a W-of-k write run on a goroutine of their own")

	// Overload control.
	cuAdmitted = metrics.Default().Counter("corm_cluster_admission_admitted_total",
		"operations admitted by the per-tenant admission controller")
	cuAdmissionThrottled = metrics.Default().Counter("corm_cluster_admission_throttled_total",
		"operations rejected by a tenant's token bucket")
)
