// Background re-replication: the cluster-side analogue of the node-side
// background compactor. A Replicator watches a replicated KV's degraded
// index (keys below full replication — a replica write failed, a node
// died, or a read found divergence) and re-populates stale replicas from
// live ones on a paced cycle, using the same service pattern as
// core.Compactor: fixed interval, exponential idle backoff, bounded work
// per cycle. A breaker-recovery hook wakes it immediately when a node
// rejoins, so restoring the replication factor does not wait out the idle
// backoff.
package cluster

import (
	"sync"
	"time"
)

// ReplicatorConfig tunes the background re-replicator. Zero values take
// defaults.
type ReplicatorConfig struct {
	// Interval paces repair cycles while there is work (default 100ms).
	// Cycles that find nothing to repair double the wait up to
	// idleBackoff×Interval, so an idle replicator costs near nothing.
	Interval time.Duration
}

const (
	// idleBackoff caps the exponential idle backoff, in Intervals.
	idleBackoff = 32
	// maxKeysPerCycle bounds repair work per cycle, keeping one cycle's
	// network load predictable; remaining keys wait for the next cycle.
	maxKeysPerCycle = 64
)

// RepairReport summarizes one replicator cycle.
type RepairReport struct {
	// Scanned is how many degraded keys the cycle attempted.
	Scanned int
	// Repaired is how many replicas were re-populated.
	Repaired int
	// Failed is how many keys still have unrepaired replicas (node still
	// down, or the repair write failed).
	Failed int
	// Remaining is the degraded-key backlog after the cycle.
	Remaining int
}

// Replicator restores the replication factor of a KV's degraded keys in
// the background.
type Replicator struct {
	kv  *KV
	cfg ReplicatorConfig

	mu      sync.Mutex
	running bool
	stop    chan struct{}
	done    chan struct{}
	kick    chan struct{}
}

// NewReplicator builds a replicator for the KV and registers a breaker
// recovery hook on its pool: when a down node's breaker closes, the next
// cycle runs immediately.
func NewReplicator(kv *KV, cfg ReplicatorConfig) *Replicator {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	r := &Replicator{kv: kv, cfg: cfg, kick: make(chan struct{}, 1)}
	kv.pool.setRecoverHook(func(int) { r.Kick() })
	return r
}

// Kick requests an immediate cycle (collapsing concurrent requests); safe
// to call whether or not the replicator is running.
func (r *Replicator) Kick() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Start launches the background loop. Idempotent.
func (r *Replicator) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return
	}
	r.running = true
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.loop(r.stop, r.done)
}

// Stop halts the loop, waiting for an in-flight cycle to finish.
// Idempotent.
func (r *Replicator) Stop() {
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return
	}
	r.running = false
	stop, done := r.stop, r.done
	r.mu.Unlock()
	close(stop)
	<-done
}

// Running reports whether the background loop is active.
func (r *Replicator) Running() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.running
}

func (r *Replicator) loop(stop, done chan struct{}) {
	defer close(done)
	wait := r.cfg.Interval
	for {
		timer := time.NewTimer(wait)
		select {
		case <-stop:
			timer.Stop()
			return
		case <-r.kick:
			timer.Stop()
		case <-timer.C:
		}
		rep := r.RunCycle()
		switch {
		case rep.Repaired == 0 && rep.Remaining == 0:
			// Idle: back off exponentially so a healthy cluster pays
			// almost nothing for the standing service.
			wait = min(2*wait, idleBackoff*r.cfg.Interval)
		case rep.Repaired > 0 && rep.Remaining > 0:
			// Work-conserving drain: the cycle made progress and left a
			// backlog (the per-cycle bound, or repairs that failed on a
			// half-warm rejoining node), so run again immediately instead
			// of letting the backlog wait out a full interval. A cycle
			// that makes NO progress does not take this path — a node
			// that is genuinely still down paces at Interval, not a spin.
			r.Kick()
			wait = r.cfg.Interval
		default:
			wait = r.cfg.Interval
		}
	}
}

// RunCycle synchronously repairs up to maxKeysPerCycle degraded keys and
// reports what it did. Exported for tests and for callers that pace
// repair themselves.
func (r *Replicator) RunCycle() RepairReport {
	cuReplicatorCycles.Inc()
	keys := r.kv.degradedSnapshot(maxKeysPerCycle)
	rep := RepairReport{Scanned: len(keys)}
	for _, key := range keys {
		n, err := r.kv.RepairKey(key)
		rep.Repaired += n
		if err != nil {
			rep.Failed++
		}
	}
	rep.Remaining = r.kv.DegradedKeys()
	return rep
}
