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

	"corm/internal/client"
	"corm/internal/core"
)

// FetchAdd atomically adds delta to the little-endian u64 at off inside
// the object, server-side on the owning node, returning the pre-add
// value. The pointer is corrected in place.
func (p *Pool) FetchAdd(g *GlobalAddr, off int, delta int64) (v uint64, err error) {
	err = p.on(g.Node, func(c *client.Ctx) (err error) {
		v, err = c.FetchAdd(&g.Addr, off, delta)
		return err
	})
	return v, err
}

// CAS atomically compares len(old) payload bytes at off with old and, on
// a match, overwrites them with new — on the owning node, under the
// object's block lock. A mismatch returns core.ErrConflict.
func (p *Pool) CAS(g *GlobalAddr, off int, old, new []byte) error {
	return p.on(g.Node, func(c *client.Ctx) error { return c.CAS(&g.Addr, off, old, new) })
}

// PutIf writes the object payload only if its version still equals
// version, returning the resulting version (the observed one alongside
// core.ErrConflict).
func (p *Pool) PutIf(g *GlobalAddr, version uint32, value []byte) (v uint32, err error) {
	err = p.on(g.Node, func(c *client.Ctx) (err error) {
		v, err = c.PutIf(&g.Addr, version, value)
		return err
	})
	return v, err
}

// PutIfAbsent writes the object payload only if the object has never been
// written — first-writer-wins initialization across the cluster.
func (p *Pool) PutIfAbsent(g *GlobalAddr, value []byte) (v uint32, err error) {
	err = p.on(g.Node, func(c *client.Ctx) (err error) {
		v, err = c.PutIfAbsent(&g.Addr, value)
		return err
	})
	return v, err
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
	for i, r := range reps {
		if !r.readable() {
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
	// at the write concern, counting the primary as the first ack. A
	// replica that misses its delta, before the ack or after it, is marked
	// stale so repair converges it.
	cuCounterPropagations.Inc()
	var fan []int // indices into reps
	for i, r := range reps {
		if i != primary && r.readable() {
			fan = append(fan, i)
		}
	}
	miss := func(o outcome) {
		if o.err != nil {
			kv.markStale(key, e, fan[o.i], version)
			kv.scheduleRepair(key)
		}
	}
	late, err := writeW(len(fan), 1, kv.w, func(j int) error {
		r := reps[fan[j]]
		g := r.addr
		_, err := kv.pool.FetchAdd(&g, wireOff, delta)
		if err == nil {
			kv.foldAddr(key, e, fan[j], r, g, r.classSize, version)
		}
		return err
	}, func(o outcome) bool { miss(o); return false })
	if late.n > 0 {
		stayRegistered = true
		late.handOff(miss, func() { kv.rc.exit(epoch) })
	}
	return old, true, err
}
