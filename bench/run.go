package main

import (
	"fmt"
	"sync"
	"time"
)

// runConfig sizes one run of one workload.
type runConfig struct {
	seconds    time.Duration // the timed window
	warmup     time.Duration
	setups     int // most set-ups timed for setup_s; the last one is used
	probeCalls int
}

func configFor(seconds float64, short bool) runConfig {
	d := time.Duration(seconds * float64(time.Second))
	c := runConfig{seconds: d, warmup: min(3*time.Second, d/5), setups: 7, probeCalls: 20000}
	if short {
		c.setups, c.probeCalls = 1, 2000
	}
	return c
}

const setupBudget = 1500 * time.Millisecond

// kindStat is one op kind's latency over the whole timed window, for the
// output file; the end-to-end metrics are medians over sub-windows.
type kindStat struct {
	Samples uint64  `json:"samples"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
	P999Us  float64 `json:"p99.9_us"`
	MaxUs   float64 `json:"max_us"`
}

// runOutput is what one run of one workload produced.
type runOutput struct {
	Workload  string              `json:"workload"`
	Traced    bool                `json:"traced"`
	Metrics   map[string]float64  `json:"metrics"`
	Samples   map[string]uint64   `json:"samples,omitempty"` // per end-to-end metric
	Kinds     map[string]kindStat `json:"kinds,omitempty"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	// Idle names a layer the workload exists to exercise and did not.
	Idle string `json:"idle,omitempty"`

	spans []span
}

func (o *runOutput) correct() bool { return o.Failed == 0 && o.Idle == "" && o.Attempted > 0 }

// runWindow drives the instance for warm+dur and returns what the timed
// part recorded. With parallel, each stream gets its own closed-loop
// goroutine; otherwise one goroutine takes the streams in turn. onStart
// runs when the warm-up ends.
func runWindow(inst instance, tr *tracer, streams int, parallel bool, warm, dur time.Duration, onStart func()) windowFacts {
	start := tr.now() + warm
	end := start + dur
	winLen := dur / nWindows
	loops := 1
	if parallel {
		loops = streams
	}
	recs := make([]*recorder, loops)
	var wg sync.WaitGroup
	for l := range recs {
		recs[l] = &recorder{start: start, winLen: winLen}
		wg.Add(1)
		go func(l int, rec *recorder) {
			defer wg.Done()
			g := l
			for {
				t0 := tr.now()
				if t0 >= end {
					return
				}
				traced := tr.on()
				var id uint64
				if traced {
					id = tr.begin()
				}
				res := inst.do(g)
				t1 := tr.now()
				if traced {
					tr.end(id, res.kind, t0, t1)
				}
				rec.observe(res, t0, t1)
				if !parallel {
					g = (g + 1) % streams
				}
			}
		}(l, recs[l])
	}

	// Sample CPU at sub-window edges and memory ten times per sub-window.
	const perWin = 10
	var cpu [nWindows + 1]time.Duration
	var facts windowFacts
	var ratioSum float64
	for i := 0; i <= nWindows*perWin; i++ {
		if d := start + time.Duration(i)*winLen/perWin - tr.now(); d > 0 {
			time.Sleep(d)
		}
		if i == 0 && onStart != nil {
			onStart()
		}
		if i%perWin == 0 {
			cpu[i/perWin] = processCPU()
		}
		var active int64
		for _, st := range inst.stores() {
			active += st.ActiveBytes()
		}
		facts.activeEnd = float64(active)
		facts.activePeak = max(facts.activePeak, float64(active))
		ratioSum += ratio(float64(active), float64(inst.liveBytes()))
	}
	wg.Wait()
	var cpuUs [nWindows]float64
	for w := range cpuUs {
		cpuUs[w] = float64(cpu[w+1]-cpu[w]) / 1e3
	}
	facts.sum = summarize(recs, cpuUs)
	facts.sum.activePerLive = ratioSum / (nWindows*perWin + 1)
	facts.wall = dur
	return facts
}

// finish audits the instance and folds the window's verdicts into out.
func finish(out *runOutput, w workloadDef, inst instance, facts []windowFacts, merges, faultins float64) {
	for _, f := range facts {
		out.Attempted += f.sum.att
		out.Failed += f.sum.fail
	}
	checked, bad := inst.audit()
	out.Attempted += int64(checked)
	out.Failed += int64(bad)
	// A workload that stopped exercising its layer is a broken benchmark,
	// not a fast one.
	switch {
	case w.name == "churn_compact" && merges == 0:
		out.Idle = "compactor: no merges in the timed window"
	case w.name == "tiered_zipf" && faultins == 0:
		out.Idle = "tier: no fault-ins in the timed window"
	}
}

// runUntraced is the end-to-end run: timed set-ups, warm-up, one timed
// window with tracing off.
func runUntraced(w workloadDef, seed int64, cfg runConfig) (*runOutput, error) {
	defer w.setProcs()()
	ss := w.gen(seed)
	tr := newTracer()
	var inst instance
	// Short set-ups are the noisy ones, so they are repeated more: at least
	// three, then until setupBudget is spent.
	var setupS []float64
	var spent time.Duration
	for i := 0; i < cfg.setups && (i < min(3, cfg.setups) || spent < setupBudget); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ss, tr, false); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := time.Since(t0)
		spent += took
		setupS = append(setupS, took.Seconds())
	}
	defer inst.close()

	var before *counterSnap
	facts := runWindow(inst, tr, len(ss), true, cfg.warmup, cfg.seconds, func() { before = snapCounters(inst) })
	after := snapCounters(inst)
	delta := func(name string) float64 { return float64(after.vals[name] - before.vals[name]) }

	s := facts.sum
	out := &runOutput{Workload: w.name, Metrics: make(map[string]float64), Samples: make(map[string]uint64), Kinds: make(map[string]kindStat)}
	put := func(name string, v float64, n uint64) {
		out.Metrics[name] = v
		out.Samples[name] = n
	}
	put("setup_s", median(setupS), uint64(len(setupS)))
	put("ops_per_s", s.opsPerSec(), nWindows)
	put("cpu_us_per_op", s.cpuUsPerOp(), nWindows)
	put("active_per_live", s.activePerLive, nWindows*10+1)
	for _, c := range []struct {
		name string
		kind int
		q    float64
	}{
		{"read_p50_us", w.read, 0.50}, {"read_p99_us", w.read, 0.99},
		{"write_p50_us", w.write, 0.50}, {"write_p99_us", w.write, 0.99},
		{"direct_read_p50_us", w.direct, 0.50}, {"direct_read_p99_us", w.direct, 0.99},
		{"hot_read_p999_us", w.hot, 0.999},
	} {
		q := c.q
		if w.unsteadyTail {
			q = 0.50
		}
		put(c.name, s.quantileUs(c.kind, q), s.samples(c.kind))
	}
	for k, h := range s.total {
		if h != nil {
			out.Kinds[kindNames[k]] = kindStat{
				Samples: h.n, P50Us: h.quantile(0.50) / 1e3, P99Us: h.quantile(0.99) / 1e3,
				P999Us: h.quantile(0.999) / 1e3, MaxUs: float64(h.max) / 1e3,
			}
		}
	}
	finish(out, w, inst, []windowFacts{facts}, delta("corm_compaction_merges_total"), delta("corm_tier_faultins_total"))
	return out, nil
}

// runTraced is the per-layer run. Its seconds are split into an untraced
// window with the workload's own goroutines (counter deltas), an untraced
// and a traced window on one goroutine (spans, and the tracing overhead
// between the two), and the stacked probes.
func runTraced(w workloadDef, seed int64, cfg runConfig) (*runOutput, error) {
	defer w.setProcs()()
	ss := w.gen(seed)
	tr := newTracer()
	inst, err := w.setup(ss, tr, true)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	out := &runOutput{Workload: w.name, Traced: true, Metrics: make(map[string]float64)}
	m := out.Metrics

	var before *counterSnap
	counted := runWindow(inst, tr, len(ss), true, cfg.warmup, cfg.seconds/3, func() {
		resetWindowHists()
		before = snapCounters(inst)
	})
	after := snapCounters(inst)
	layerFromCounters(inst, before, after, counted, m)
	m["bench.read_p99_us"] = counted.sum.quantileUs(w.read, 0.99)
	m["bench.write_p99_us"] = counted.sum.quantileUs(w.write, 0.99)
	m["bench.hot_read_p99_us"] = counted.sum.quantileUs(w.hot, 0.99)

	plain := runWindow(inst, tr, len(ss), false, cfg.warmup/3, cfg.seconds/6, nil)
	tr.enabled.Store(true)
	traced := runWindow(inst, tr, len(ss), false, 0, cfg.seconds/3, nil)
	tr.enabled.Store(false)
	m["bench.trace_overhead_share"] = 1 - ratio(traced.sum.opsPerSec(), plain.sum.opsPerSec())

	out.spans = tr.spans()
	byKind := analyze(out.spans)
	switch w.name {
	case "kv_replicated":
		get, put := byKind[kGet], byKind[kPut]
		m["cluster.get_self_us"] = median(get.selfNs) / 1e3
		m["cluster.put_self_us"] = median(put.selfNs) / 1e3
		m["cluster.get_backend_calls"] = median(get.calls)
		m["cluster.put_backend_calls"] = median(put.calls)
		m["cluster.put_slowest_child_us"] = median(put.slowestNs) / 1e3
	case "batch_pipeline":
		for _, k := range []int{kMultiRead, kReadAsync, kFetchAddAsync, kMultiWrite} {
			m["client."+kindNames[k]+"_subop_ns"] = median(byKind[k].durNs) / batchWidth
		}
	case "rpc_point":
		if err := probeWire(seed, cfg.probeCalls, m); err != nil {
			return nil, err
		}
		stack := m["core.read_ns"] + m["rpc.read_self_ns"] + m["transport.tcp_call_self_ns"] + m["client.read_self_ns"]
		m["bench.read_budget_residual_share"] = 1 - ratio(stack, plain.sum.quantileUs(kRead, 0.50)*1e3)
	case "churn_compact":
		if err := probeCompact(ss[0].picks, 5, m); err != nil {
			return nil, err
		}
	case "tiered_zipf":
		if err := probeTier(cfg.probeCalls, m); err != nil {
			return nil, err
		}
	}
	finish(out, w, inst, []windowFacts{counted, plain, traced}, m["core.compact_merges"], m["tier.faultins_per_kop"])
	return out, nil
}
