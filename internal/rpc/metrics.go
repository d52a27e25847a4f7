package rpc

import (
	"time"

	"corm/internal/metrics"
)

// RPC-layer metrics. Latency histograms are per opcode, indexed by OpCode
// so the hot path never formats a name: the array lookup is free and the
// label is baked into the registered metric name.
var (
	mOpLatency = [...]*metrics.Histogram{
		OpAlloc:     metrics.Default().Histogram(`corm_rpc_latency_ns{op="alloc"}`, "RPC service time by opcode"),
		OpFree:      metrics.Default().Histogram(`corm_rpc_latency_ns{op="free"}`, "RPC service time by opcode"),
		OpRead:      metrics.Default().Histogram(`corm_rpc_latency_ns{op="read"}`, "RPC service time by opcode"),
		OpWrite:     metrics.Default().Histogram(`corm_rpc_latency_ns{op="write"}`, "RPC service time by opcode"),
		OpRelease:   metrics.Default().Histogram(`corm_rpc_latency_ns{op="release"}`, "RPC service time by opcode"),
		OpInfo:      metrics.Default().Histogram(`corm_rpc_latency_ns{op="info"}`, "RPC service time by opcode"),
		OpBatch:     metrics.Default().Histogram(`corm_rpc_latency_ns{op="batch"}`, "RPC service time by opcode"),
		OpCAS:       metrics.Default().Histogram(`corm_rpc_latency_ns{op="cas"}`, "RPC service time by opcode"),
		OpFetchAdd:  metrics.Default().Histogram(`corm_rpc_latency_ns{op="fetchadd"}`, "RPC service time by opcode"),
		OpCondWrite: metrics.Default().Histogram(`corm_rpc_latency_ns{op="condwrite"}`, "RPC service time by opcode"),
		OpScan:      metrics.Default().Histogram(`corm_rpc_latency_ns{op="scan"}`, "RPC service time by opcode"),
	}
	mRequests = metrics.Default().Counter("corm_rpc_requests_total",
		"requests submitted to the worker pool")
	mBatchSubOps = metrics.Default().Histogram("corm_rpc_batch_subops",
		"sub-operations per OpBatch request")
	mBatchWorkers = metrics.Default().Histogram("corm_rpc_batch_workers",
		"worker tokens used by one OpBatch (1 = no extra borrowed)")
	mTokenContended = metrics.Default().Counter("corm_rpc_token_waits_total",
		"Submits that blocked waiting for a worker token")
	mTokenWait = metrics.Default().Histogram("corm_rpc_token_wait_ns",
		"time spent queued for a worker token (contended Submits only)")
	mShed = metrics.Default().Counter("corm_rpc_shed_total",
		"requests rejected with StatusThrottled by queue-depth load shedding")
	mQueueDepth = metrics.Default().Gauge("corm_rpc_queue_depth",
		"submissions currently waiting behind busy workers (sums across servers)")
	mScanMatches = metrics.Default().Histogram("corm_rpc_scan_matches",
		"matches returned per OpScan request")
	mScanTruncated = metrics.Default().Counter("corm_rpc_scan_truncated_total",
		"OpScan responses cut short by the frame limit")
	mDedupHits = metrics.Default().Counter("corm_rpc_dedup_replays_total",
		"tokened pushdown retries answered from the outcome cache")
)

// observeOp records one request's service time into its opcode histogram.
func observeOp(op OpCode, start time.Time) {
	if int(op) < len(mOpLatency) {
		if h := mOpLatency[op]; h != nil {
			h.Record(time.Since(start))
		}
	}
}
