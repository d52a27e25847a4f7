package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"corm/internal/transport"
)

// ErrNodeDown is returned (wrapped in a *NodeError carrying the node
// index) for operations routed to a node whose circuit breaker is open:
// the pool fails fast instead of paying a dial timeout per call.
var ErrNodeDown = errors.New("cluster: node down")

// ErrProbeTimeout marks a health probe that did not answer within
// ProbeTimeout. It counts as a node failure for the breaker: a hung node
// is as dead as a refusing one, but must not hang the prober with it.
var ErrProbeTimeout = errors.New("cluster: probe timeout")

// Breaker defaults.
const (
	// DefaultFailThreshold is how many consecutive transport-level
	// failures open a node's breaker.
	DefaultFailThreshold = 3
	// DefaultProbeCooldown is how long an open breaker rejects traffic
	// before letting one probe operation through (half-open). The actual
	// cooldown is jittered per trip by ProbeJitter.
	DefaultProbeCooldown = 500 * time.Millisecond
	// DefaultProbeJitter spreads each cooldown ±20% so many clients (or
	// many breakers in one pool) do not synchronize their probes into a
	// thundering herd against a node that just came back.
	DefaultProbeJitter = 0.2
	// DefaultProbeTimeout bounds how long one active probe may block.
	DefaultProbeTimeout = time.Second
)

// nodeHealth is one node's consecutive-failure circuit breaker.
//
// States: closed (healthy, all traffic) → open (down, fail fast) →
// half-open (cooldown elapsed: one operation probes the node; success
// closes the breaker, failure re-opens it and restarts the cooldown).
type nodeHealth struct {
	consecFails int
	open        bool
	openedAt    time.Time
	cooldown    time.Duration // jittered per trip
	probing     bool
}

// jitteredCooldown scales the configured cooldown by 1 ± ProbeJitter·U so
// probe storms decorrelate. Called under p.mu.
func (p *Pool) jitteredCooldown() time.Duration { return p.jitter(p.ProbeCooldown) }

// jitter scales d by 1 ± ProbeJitter·U.
func (p *Pool) jitter(d time.Duration) time.Duration {
	if p.ProbeJitter <= 0 || d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 + p.ProbeJitter*(2*rand.Float64()-1)))
}

// passable reports, under p.mu, whether traffic may reach the node: its
// breaker is closed, or open with its cooldown over and no probe in flight.
func (p *Pool) passable(node int) bool {
	h := &p.health[node]
	return !h.open || !h.probing && time.Since(h.openedAt) >= h.cooldown
}

// gate decides, under p.mu, whether an operation may proceed against the
// node. It returns nil (proceed — possibly as the half-open probe) or a
// fail-fast *NodeError wrapping ErrNodeDown.
func (p *Pool) gate(node int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.passable(node) {
		cuFailFasts.Inc()
		return p.nodeErr(node, ErrNodeDown)
	}
	if h := &p.health[node]; h.open {
		h.probing = true // half-open: this operation is the probe
	}
	return nil
}

// observe records an operation's outcome against the node's breaker. Only
// transport-level faults (and probe timeouts) count as node failures;
// store-level results (not found, compacting, …) prove the node is alive.
func (p *Pool) observe(node int, err error) {
	fail := transport.IsTransportError(err) || errors.Is(err, ErrProbeTimeout)
	p.mu.Lock()
	h := &p.health[node]
	h.probing = false
	if !fail {
		var recovered bool
		if h.open {
			cuBreakerRecoveries.Inc()
			cuOpenBreakers.Dec()
			recovered = true
		}
		h.consecFails = 0
		h.open = false
		hook := p.onRecover
		p.mu.Unlock()
		if recovered && hook != nil {
			hook(node)
		}
		return
	}
	h.consecFails++
	if h.consecFails >= p.FailThreshold && !h.open {
		h.open = true
		p.incs[node].Add(1)
		cuBreakerTrips.Inc()
		cuOpenBreakers.Inc()
	}
	if h.open {
		// Re-arm the cooldown on every failure, including failed probes,
		// re-jittering each time so repeated failures stay decorrelated.
		h.openedAt = time.Now()
		h.cooldown = p.jitteredCooldown()
	}
	p.mu.Unlock()
}

// NodeDown reports whether the node's breaker is currently open.
func (p *Pool) NodeDown(node int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.health[node].open
}

// ProbeNode actively probes a node with an idempotent Info call and feeds
// the result to its breaker, restoring a recovered node immediately
// instead of waiting for the probe-on-use cooldown. The probe is bounded
// by ProbeTimeout: a hung node counts as a failure instead of hanging the
// caller (the abandoned Info call finishes — or times out at the
// transport layer — on its own goroutine).
func (p *Pool) ProbeNode(node int) error {
	if node < 0 || node >= len(p.nodes) {
		return p.errNodeRange(node)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.nodes[node].Info()
		done <- err
	}()
	var err error
	timer := time.NewTimer(p.probeTimeout())
	defer timer.Stop()
	select {
	case err = <-done:
	case <-timer.C:
		cuProbeTimeouts.Inc()
		err = fmt.Errorf("%w: node %d (%s) after %v", ErrProbeTimeout, node, p.labels[node], p.probeTimeout())
	}
	p.observe(node, err)
	return err
}

func (p *Pool) probeTimeout() time.Duration {
	if p.ProbeTimeout > 0 {
		return p.ProbeTimeout
	}
	return DefaultProbeTimeout
}

// StartProber launches a background prober that re-checks every node whose
// breaker is open, on a jittered cadence (interval ± ProbeJitter), so
// recovered nodes rejoin without waiting for probe-on-use traffic and
// probers across many pool instances never synchronize. The returned stop
// function halts it.
func (p *Pool) StartProber(interval time.Duration) (stop func()) {
	doneCh := make(chan struct{})
	go func() {
		for {
			timer := time.NewTimer(p.jitter(interval))
			select {
			case <-doneCh:
				timer.Stop()
				return
			case <-timer.C:
			}
			for i := 0; i < p.Nodes(); i++ {
				if p.NodeDown(i) {
					p.ProbeNode(i)
				}
			}
		}
	}()
	return func() { close(doneCh) }
}
