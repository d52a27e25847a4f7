// Near-data compute at the cluster layer. Pool forwards the pushdown
// atomics (CAS, fetch-add, conditional write) to the owning node with the
// same breaker gating and pointer correction as Read/Write. KV adds a
// keyed counter on top: FetchAdd routes to the key's rendezvous replica
// set — unreplicated it is one pushdown round trip to the owner node;
// replicated it funnels through the primary (first live replica, so the
// returned pre-add value is a single linearization point per key) and
// propagates the delta to the remaining live replicas, acking after the
// configured write concern exactly like Put. Addition commutes, so
// replicas converge under concurrent counters regardless of delivery
// order; a replica that misses its delta is marked stale and healed by
// the same repair machinery that serves divergent reads.
package cluster

import (
	"errors"
	"fmt"

	"corm/internal/core"
)

// FetchAdd atomically adds delta to the little-endian u64 at off inside
// the object, server-side on the owning node, returning the pre-add
// value. The pointer is corrected in place.
func (p *Pool) FetchAdd(g *GlobalAddr, off int, delta int64) (uint64, error) {
	ctx, err := p.ctxOf(*g)
	if err != nil {
		return 0, err
	}
	v, err := ctx.FetchAdd(&g.Addr, off, delta)
	p.observe(g.Node, err)
	return v, p.nodeErr(g.Node, err)
}

// CAS atomically compares len(old) payload bytes at off with old and, on
// a match, overwrites them with new — on the owning node, under the
// object's block lock. A mismatch returns core.ErrConflict.
func (p *Pool) CAS(g *GlobalAddr, off int, old, new []byte) error {
	ctx, err := p.ctxOf(*g)
	if err != nil {
		return err
	}
	err = ctx.CAS(&g.Addr, off, old, new)
	p.observe(g.Node, err)
	return p.nodeErr(g.Node, err)
}

// PutIf writes the object payload only if its version still equals
// version, returning the resulting version (the observed one alongside
// core.ErrConflict).
func (p *Pool) PutIf(g *GlobalAddr, version uint32, value []byte) (uint32, error) {
	ctx, err := p.ctxOf(*g)
	if err != nil {
		return 0, err
	}
	v, err := ctx.PutIf(&g.Addr, version, value)
	p.observe(g.Node, err)
	return v, p.nodeErr(g.Node, err)
}

// PutIfAbsent writes the object payload only if the object has never been
// written — first-writer-wins initialization across the cluster.
func (p *Pool) PutIfAbsent(g *GlobalAddr, value []byte) (uint32, error) {
	ctx, err := p.ctxOf(*g)
	if err != nil {
		return 0, err
	}
	v, err := ctx.PutIfAbsent(&g.Addr, value)
	p.observe(g.Node, err)
	return v, p.nodeErr(g.Node, err)
}

// FetchAdd atomically adds delta to the little-endian u64 at byte off of
// the key's value, returning the pre-add value as observed on the key's
// primary replica. The bool reports whether the key exists (a counter
// must be Put before it can be added to).
//
// Replicated entries funnel every FetchAdd through the primary — the
// first live replica in rendezvous rank order — so concurrent counters on
// one key serialize at a single replica and each caller's pre-add value
// is exact. The delta then fans out to the remaining live replicas in
// parallel, and the call acks once WriteConcern replicas (primary
// included) applied it. Replicas that fail are marked stale and queued
// for repair, which recopies the whole record — counter value included —
// from a live replica, so missed deltas heal the same way missed writes
// do. Like Put, fewer than W acks returns ErrWriteConcern; the deltas
// already applied are not undone (the acked replicas are authoritative
// and repair converges the rest).
func (kv *KV) FetchAdd(key string, off int, delta int64) (uint64, bool, error) {
	// Registered as a reader until the last propagation resolves: a delta
	// must never land on a slot the reclaimer has handed to another Put.
	epoch := kv.rc.enter()
	stayRegistered := false
	defer func() {
		if !stayRegistered {
			kv.rc.exit(epoch)
		}
	}()
	kv.mu.Lock()
	e := kv.entries[key]
	if e == nil {
		kv.mu.Unlock()
		return 0, false, nil
	}
	version := e.version
	reps := make([]kvReplica, len(e.reps))
	copy(reps, e.reps)
	kv.mu.Unlock()

	// The stored record prefixes replicated values with the version tag;
	// the caller's offset is relative to the value.
	wireOff := off + kv.tagBytes()

	// Primary apply: the first live replica that answers. Store-level
	// conflicts (bad offset) surface immediately; node faults mark the
	// replica stale and fail over down the rank order, exactly like Get.
	primary := -1
	var old uint64
	var lastErr error
	for i := range reps {
		r := reps[i]
		if r.state != repLive || r.addr.Addr.IsZero() {
			continue
		}
		g := r.addr
		v, err := kv.pool.FetchAdd(&g, wireOff, delta)
		if err != nil {
			if kv.k == 1 {
				return 0, true, err
			}
			if errors.Is(err, core.ErrShortBuffer) {
				return 0, true, err // bad offset fails identically everywhere
			}
			if kv.markStale(key, e, i, version) && isDivergent(err) {
				kv.suspectNode(r.addr.Node)
			}
			lastErr = err
			continue
		}
		kv.foldAddr(key, e, i, r, g, r.classSize, version)
		primary = i
		old = v
		break
	}
	if primary == -1 {
		if kv.k > 1 {
			kv.scheduleRepair(key)
		}
		if lastErr == nil {
			return 0, true, fmt.Errorf("%w: key %q: no live replica", ErrNoReplica, key)
		}
		return 0, true, fmt.Errorf("%w: key %q: %w", ErrNoReplica, key, lastErr)
	}
	if kv.k == 1 {
		return old, true, nil
	}

	// Propagate the delta to the other live replicas in parallel and ack
	// at the write concern, counting the primary as the first ack.
	cuCounterPropagations.Inc()
	type propOutcome struct {
		i   int
		err error
	}
	res := make(chan propOutcome, len(reps))
	fanned := 0
	for i := range reps {
		r := reps[i]
		if i == primary || r.state != repLive || r.addr.Addr.IsZero() {
			continue
		}
		fanned++
		go func(i int, g GlobalAddr) {
			_, err := kv.pool.FetchAdd(&g, wireOff, delta)
			if err == nil {
				kv.foldAddr(key, e, i, reps[i], g, reps[i].classSize, version)
			}
			res <- propOutcome{i: i, err: err}
		}(i, r.addr)
	}

	succ, pending := 1, fanned
	var firstErr error
	for pending > 0 && succ < kv.w && succ+pending >= kv.w {
		o := <-res
		pending--
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			kv.markStale(key, e, o.i, version)
			kv.scheduleRepair(key)
			continue
		}
		succ++
	}
	// Stragglers past the ack point finish in the background; a late
	// failure still marks its replica stale so repair converges it.
	if pending > 0 {
		stayRegistered = true
		go func(pending int) {
			defer kv.rc.exit(epoch)
			for ; pending > 0; pending-- {
				if o := <-res; o.err != nil {
					kv.markStale(key, e, o.i, version)
					kv.scheduleRepair(key)
				}
			}
		}(pending)
	}
	if succ < kv.w {
		cuWriteConcernMisses.Inc()
		return old, true, fmt.Errorf("%w: %d/%d acks (replicas=%d): %v",
			ErrWriteConcern, succ, kv.w, kv.k, firstErr)
	}
	return old, true, nil
}
