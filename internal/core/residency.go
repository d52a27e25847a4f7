package core

import (
	"errors"
	"fmt"
	"time"

	"corm/internal/mem"
	"corm/internal/tier"
)

// The store half of elastic memory: glue between the tier package's
// residency manager and the store's block-state protocol. The design
// reuses the locks the store already has — every residency transition
// (spill-out, fault-in) happens under the block's rw write lock, the same
// lock the RPC mutation path and the compaction executor take — so "a
// fault-in racing an eviction" reduces to two writers contending for one
// mutex. The per-block state machine is:
//
//	Resident --SpillOut (tryEvict, holds rw)--> Evicted
//	Evicted  --FaultIn (faultInLocked, holds rw)--> Faulting --> Resident
//
// Fault-in leaves the block's image in the tier, and an eviction that finds
// the block unwritten since (mem.Frame's dirty bit, set by the WriteBytes
// every store mutation funnels through) skips the write-back; the same rw
// hold is all the synchronisation that rule needs (tier.Residency.SpillOut).
//
// Eviction is driven from two places: the Phys frame allocator's budget
// hook (reclaimFrames, invoked when an allocation would overshoot the
// budget) and the explicit EvictBlocks helper for tests and benchmarks.
// Fault-in is driven from every path that touches block memory: the RPC
// read/write/free paths, pushdown ops, the compaction copy phase, and —
// via the RNIC's page-fault upcall — one-sided RDMA access to an evicted
// page (the ODP hardware path of §3.5, extended to major faults).

// heatRefreshInterval throttles AutoTuner snapshots on the reclaim path:
// labels move slowly, reclaim can run hot.
const heatRefreshInterval = 100 * time.Millisecond

// allocFaultRetries bounds how many evict-then-fault rounds one AllocOn
// rides out before giving up. Fault-in sets the clock's reference bit, so
// re-evicting the same block needs two full clock laps — more than one
// retry is already rare.
const allocFaultRetries = 8

// errNotResident routes an AllocAnd callback abort: the chosen block is
// evicted, fault it in outside the thread-local lock and retry.
var errNotResident = errors.New("core: allocation target block not resident")

// Tiered reports whether the store runs with a residency manager (a frame
// budget and/or an explicit tier spec).
func (s *Store) Tiered() bool { return s.res != nil }

// Residency exposes the residency manager (nil when tiering is off) for
// tests, benchmarks, and the metrics endpoints.
func (s *Store) Residency() *tier.Residency { return s.res }

// Close releases tiering resources (the disk tier's spill directory).
// Stores without a tier need no teardown; Close is then a no-op.
func (s *Store) Close() error {
	if s.tierImpl != nil {
		return s.tierImpl.Close()
	}
	return nil
}

// faultInLocked makes st's block resident. The caller holds st.rw
// exclusively and has passed the gone() check. No-op (plus a clock touch)
// when tiering is off or the block is already resident.
func (s *Store) faultInLocked(st *blockState) error {
	h := st.resH
	if h == nil {
		return nil
	}
	h.Touch()
	if h.State() == tier.Resident {
		return nil
	}
	start := time.Now()
	if err := s.res.FaultIn(h); err != nil {
		return fmt.Errorf("core: fault-in of block %#x: %w", st.VAddr, err)
	}
	cmFaultIns.Inc()
	cmFaultInNs.Observe(time.Since(start).Nanoseconds())
	cmEvictedBlocks.Dec()
	// Predicted-hot blocks get their MTT entries restored eagerly
	// (ibv_advise_mr); cold blocks repopulate lazily through ODP misses.
	if s.cfg.Remap == RemapODPPrefetch && s.cfg.DataBacked && h.Hot() {
		if _, err := s.nic.AdviseMR(st.VAddr, st.Pages*mem.PageSize); err == nil {
			cmTierPrefetches.Inc()
		}
	}
	return nil
}

// ensureResidentSlow faults st in under its write lock — the slow half of
// rlockResident and the body of the NIC page-fault upcall.
func (s *Store) ensureResidentSlow(st *blockState) error {
	h := st.resH
	if h == nil || h.State() == tier.Resident {
		if h != nil {
			h.Touch()
		}
		return nil
	}
	st.rw.Lock()
	defer st.rw.Unlock()
	if err := st.gone(); err != nil {
		if errors.Is(err, ErrCompacting) {
			// The block dissolved (or is mid-merge) since the caller
			// resolved it: its base now routes to the merge destination,
			// which the executor faulted in. The access can proceed.
			return nil
		}
		return err
	}
	return s.faultInLocked(st)
}

// rlockResident acquires st.rw in read mode with the block live and
// resident — the read-path entry gate. On success the caller holds the
// read lock; residency cannot regress while it does, because SpillOut
// needs the write lock.
func (s *Store) rlockResident(st *blockState) error {
	for {
		st.rw.RLock()
		if err := st.gone(); err != nil {
			st.rw.RUnlock()
			return err
		}
		h := st.resH
		if h == nil || h.State() == tier.Resident {
			if h != nil {
				h.Touch()
			}
			return nil
		}
		st.rw.RUnlock()
		if err := s.ensureResidentSlow(st); err != nil {
			return err
		}
	}
}

// lockResident acquires st.rw in write mode with the block live and
// resident — the mutation-path entry gate.
func (s *Store) lockResident(st *blockState) error {
	st.rw.Lock()
	if err := st.gone(); err != nil {
		st.rw.Unlock()
		return err
	}
	if err := s.faultInLocked(st); err != nil {
		st.rw.Unlock()
		return err
	}
	return nil
}

// handleNICFault is the RNIC's page-fault upcall: a one-sided access hit
// an unmapped page. If the page belongs to an evicted block, fault it in;
// the NIC retries the translation afterwards.
func (s *Store) handleNICFault(vaddr uint64) error {
	st, ok := s.resolveBase(s.blockBase(vaddr))
	if !ok {
		return fmt.Errorf("%w: %#x", ErrInvalidAddr, vaddr)
	}
	return s.ensureResidentSlow(st)
}

// reclaimFrames is the Phys budget hook: evict cold blocks until need
// pages are freed or candidates run out. It runs on whatever goroutine's
// allocation overshot the budget, with no store locks held (Phys drops
// its own mutex before invoking it).
func (s *Store) reclaimFrames(need int) int {
	if s.res == nil {
		return 0
	}
	cmTierReclaims.Inc()
	s.refreshHeat()
	freed := 0
	// Victims can fail validation (aliased, busy, raced away); bound the
	// scan so reclaim under hopeless conditions stays cheap and Alloc's
	// soft-budget overrun takes over.
	for attempts := 4*need + 16; freed < need && attempts > 0; attempts-- {
		h := s.res.NextVictim()
		if h == nil {
			break
		}
		if s.tryEvict(h) {
			freed += h.Pages()
		}
	}
	return freed
}

// refreshHeat re-labels every residency handle from the AutoTuner's
// current hot/cold class labels, at most once per heatRefreshInterval.
// Without a tuner attached every block stays cold-labeled and eviction is
// pure clock order.
func (s *Store) refreshHeat() {
	t := s.tuner.Load()
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	last := s.heatRefreshed.Load()
	if now-last < int64(heatRefreshInterval) || !s.heatRefreshed.CompareAndSwap(last, now) {
		return
	}
	hot := make(map[int]bool)
	for _, l := range t.Snapshot() {
		if l.Hot() {
			hot[l.Class] = true
		}
	}
	s.res.Relabel(func(class int) bool { return hot[class] })
}

// tryEvict validates a clock candidate under its block lock and spills it
// out. TryLock, not Lock: the caller may sit under a thread-local
// allocator's mutex (a refill that overshot the budget), and a Free
// blocked on that same allocator mutex already holds the victim's rw —
// waiting here would deadlock. A missed eviction just advances the clock.
func (s *Store) tryEvict(h *tier.Handle) bool {
	st, ok := s.resolveBase(h.Base())
	if !ok || st.resH != h {
		return false
	}
	if !st.rw.TryLock() {
		return false
	}
	defer st.rw.Unlock()
	// Aliased blocks are pinned: their frames are reachable through other
	// block-base addresses, so unmapping only the primary base would leave
	// stale alias routes to live frames and fault the primary back into
	// fresh ones — two diverging copies. They become evictable when their
	// aliases retire (releaseAlias).
	if st.gone() != nil || st.aliased() || st.Empty() || h.State() != tier.Resident {
		return false
	}
	clean, err := s.res.SpillOut(h)
	if err != nil {
		return false
	}
	// Cached translations must not serve the recycled frames.
	s.nic.Invalidate(st.VAddr, st.Pages*mem.PageSize)
	cmEvictions.Inc()
	if clean {
		cmCleanEvictions.Inc()
	}
	cmEvictedBlocks.Inc()
	return true
}

// EvictBlocks spills up to max cold blocks, returning how many were
// evicted — the explicit knob tests and benchmarks use to construct
// evicted states without waiting for budget pressure.
func (s *Store) EvictBlocks(max int) int {
	if s.res == nil {
		return 0
	}
	s.refreshHeat()
	n := 0
	for attempts := 4*max + 16; n < max && attempts > 0; attempts-- {
		h := s.res.NextVictim()
		if h == nil {
			break
		}
		if s.tryEvict(h) {
			n++
		}
	}
	return n
}
