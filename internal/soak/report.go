package soak

import (
	"fmt"
	"sync/atomic"
	"time"

	"corm/internal/metrics"
)

// recorder accumulates one tenant's measurements: an overall get/put
// histogram pair (SLOs judge the whole run) plus a pair per phase. The
// histograms live in the process-global metrics registry under labeled
// names — the soak IS the metrics layer's consumer — and are reset at run
// start because registry registration is idempotent across runs in one
// process.
type recorder struct {
	tenant    string
	overall   [2]*metrics.Histogram // [opGet, opPut]
	phases    [][2]*metrics.Histogram
	ops       atomic.Int64
	errs      atomic.Int64
	throttled atomic.Int64
}

const (
	opGet = 0
	opPut = 1
)

var opNames = [2]string{"get", "put"}

func newRecorder(tenant string, phases []PhaseSpec) *recorder {
	r := &recorder{tenant: tenant}
	reg := metrics.Default()
	for op, name := range opNames {
		h := reg.Histogram(
			fmt.Sprintf(`corm_soak_latency_ns{tenant=%q,op=%q}`, tenant, name),
			"soak client-observed operation latency")
		h.Reset()
		r.overall[op] = h
	}
	for _, p := range phases {
		var pair [2]*metrics.Histogram
		for op, name := range opNames {
			h := reg.Histogram(
				fmt.Sprintf(`corm_soak_latency_ns{tenant=%q,op=%q,phase=%q}`, tenant, name, p.Name),
				"soak client-observed operation latency by phase")
			h.Reset()
			pair[op] = h
		}
		r.phases = append(r.phases, pair)
	}
	return r
}

// observe records one served operation's latency under the current phase.
func (r *recorder) observe(phase int, op int, d time.Duration) {
	r.ops.Add(1)
	r.overall[op].Record(d)
	if phase >= 0 && phase < len(r.phases) {
		r.phases[phase][op].Record(d)
	}
}

func (r *recorder) noteError()    { r.ops.Add(1); r.errs.Add(1) }
func (r *recorder) noteThrottle() { r.throttled.Add(1) }

// QuantilesUs is a p50/p99/p99.9 triple in microseconds.
type QuantilesUs struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_us"`
	P99   float64 `json:"p99_us"`
	P999  float64 `json:"p999_us"`
	Max   float64 `json:"max_us"`
}

func quantilesOf(h *metrics.Histogram) QuantilesUs {
	s := h.Snapshot()
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return QuantilesUs{
		Count: s.Count,
		P50:   us(s.Quantile(0.50)),
		P99:   us(s.Quantile(0.99)),
		P999:  us(s.Quantile(0.999)),
		Max:   us(s.Max),
	}
}

// PhaseReport is one tenant's latency shape during one phase.
type PhaseReport struct {
	Phase string      `json:"phase"`
	Get   QuantilesUs `json:"get"`
	Put   QuantilesUs `json:"put"`
}

// SLOReport echoes the declared targets (in microseconds; 0 = not
// enforced) next to the verdict, so the JSON is self-describing.
type SLOReport struct {
	GetP99Us     float64  `json:"get_p99_us,omitempty"`
	GetP999Us    float64  `json:"get_p999_us,omitempty"`
	PutP99Us     float64  `json:"put_p99_us,omitempty"`
	PutP999Us    float64  `json:"put_p999_us,omitempty"`
	MaxErrorRate float64  `json:"max_error_rate"`
	Pass         bool     `json:"pass"`
	Breaches     []string `json:"breaches,omitempty"`
}

// TenantReport is one tenant's full outcome.
type TenantReport struct {
	Name      string        `json:"name"`
	Ops       int64         `json:"ops"`
	Errors    int64         `json:"errors"`
	Throttled int64         `json:"throttled"`
	ErrorRate float64       `json:"error_rate"`
	Get       QuantilesUs   `json:"get"`
	Put       QuantilesUs   `json:"put"`
	Phases    []PhaseReport `json:"phases"`
	SLO       SLOReport     `json:"slo"`
}

// Report is the machine-readable outcome of one soak run — the content of
// BENCH_soak.json.
type Report struct {
	Scenario     string  `json:"scenario"`
	Seed         int64   `json:"seed"`
	Nodes        int     `json:"nodes"`
	Replicas     int     `json:"replicas"`
	WriteConcern int     `json:"write_concern"`
	Seconds      float64 `json:"seconds"`

	Tenants []TenantReport `json:"tenants"`

	ChaosEvents      int   `json:"chaos_events"`
	VerifiedKeys     int   `json:"verified_keys"`
	LostAckedWrites  int   `json:"lost_acked_writes"`
	CanaryViolations int64 `json:"canary_violations"`
	CanaryExpected   bool  `json:"canary_expected"`

	// Cluster samples selected registry counters as run deltas — the
	// background machinery's activity record (compaction merges, shed
	// requests, failovers, repairs).
	Cluster map[string]int64 `json:"cluster"`

	SLOPass bool `json:"slo_pass"`
	// Pass is the overall verdict: every SLO held, no acked write was
	// lost, and the canary criterion matched expectation.
	Pass bool `json:"pass"`
}

// evaluateSLO fills a tenant report's verdict from its declared targets.
func evaluateSLO(t *TenantReport, slo SLO) {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	t.SLO = SLOReport{
		GetP99Us:     us(slo.GetP99),
		GetP999Us:    us(slo.GetP999),
		PutP99Us:     us(slo.PutP99),
		PutP999Us:    us(slo.PutP999),
		MaxErrorRate: slo.MaxErrorRate,
		Pass:         true,
	}
	breach := func(format string, args ...any) {
		t.SLO.Pass = false
		t.SLO.Breaches = append(t.SLO.Breaches, fmt.Sprintf(format, args...))
	}
	check := func(name string, got, want float64) {
		if want > 0 && got > want {
			breach("%s %.0fµs > target %.0fµs", name, got, want)
		}
	}
	check("get p99", t.Get.P99, t.SLO.GetP99Us)
	check("get p99.9", t.Get.P999, t.SLO.GetP999Us)
	check("put p99", t.Put.P99, t.SLO.PutP99Us)
	check("put p99.9", t.Put.P999, t.SLO.PutP999Us)
	if t.ErrorRate > slo.MaxErrorRate {
		breach("error rate %.4f > target %.4f", t.ErrorRate, slo.MaxErrorRate)
	}
}

// clusterCounterNames are the registry counters sampled into the report.
var clusterCounterNames = []string{
	"corm_compaction_merges_total",
	"corm_compaction_blocks_freed_total",
	"corm_compactor_cycles_total",
	"corm_rpc_shed_total",
	"corm_rpc_requests_total",
	"corm_cluster_admission_throttled_total",
	"corm_cluster_breaker_trips_total",
	"corm_cluster_failovers_total",
	"corm_cluster_replicas_repaired_total",
	"corm_cluster_write_concern_misses_total",
	"corm_core_canary_violations_total",
	"corm_tier_evictions_total",
	"corm_tier_clean_evictions_total",
	"corm_tier_faultins_total",
	"corm_tier_reclaim_runs_total",
	"corm_rnic_host_faults_total",
}

// sampleCounters snapshots the sampled registry counters.
func sampleCounters() map[string]int64 {
	out := make(map[string]int64, len(clusterCounterNames))
	for _, name := range clusterCounterNames {
		out[name] = metrics.Default().Counter(name, "").Value()
	}
	return out
}

// counterDeltas subtracts a before-snapshot from the current values.
func counterDeltas(before map[string]int64) map[string]int64 {
	after := sampleCounters()
	for k, v := range before {
		after[k] -= v
	}
	return after
}
