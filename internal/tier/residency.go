package tier

import (
	"fmt"
	"sync"
	"sync/atomic"

	"corm/internal/mem"
)

// State is a block's residency state. Transitions happen only while the
// caller holds the block's write lock (the same per-block lock the store
// and compaction executor already take), so the atomic here is for lock-
// free observers (the clock hand, fast-path checks), not for arbitration.
type State int32

const (
	// Resident: frames mapped, bytes live in RAM.
	Resident State = iota
	// Evicted: frames released, bytes live in the tier.
	Evicted
	// Faulting: fault-in in progress (frames being allocated and filled).
	// The clock never picks a Faulting block as a victim.
	Faulting
)

func (s State) String() string {
	switch s {
	case Resident:
		return "resident"
	case Evicted:
		return "evicted"
	case Faulting:
		return "faulting"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Handle is the per-block residency record. The store keeps a pointer on
// its block state so hot-path touches are a single atomic store, with no
// map lookup.
type Handle struct {
	base  uint64
	pages int
	class int // size-class tag, for heat relabeling; opaque to this package
	state atomic.Int32
	// ref is a saturating reference counter (not a single bit): every
	// access adds a life up to refMax and every clock pass takes one, so a
	// frequently-touched block survives several untouched hand laps where
	// a plain second-chance bit would evict the warm tail of a skewed
	// working set as soon as eviction churn outpaces its re-touch rate.
	ref atomic.Int32
	hot atomic.Bool // AutoTuner hot-class label; spared on the first lap
	// pins holds the block resident across a multi-step operation that
	// cannot keep the block's rw lock the whole time — the allocator's
	// fault-then-retry loop pins between its unlocked fault-in and the
	// re-entry into the allocation critical section, or eviction thrash
	// could starve it indefinitely.
	pins atomic.Int32

	// slot is the handle's index in Residency.ring, guarded by Residency.mu.
	slot int
	// image is the retained-image marker: the frames the last FaultIn mapped
	// at base and filled from a tier image it left in place, nil when no
	// such image is known. The image is current — and the next SpillOut may
	// skip the write-back — only while those same frames are still mapped at
	// base and none has been written (imageCurrent). SpillOut, a failed
	// FaultIn and Unregister leave it nil; a Remap of the base or a write to
	// any frame fails the check.
	//
	// It has no lock of its own. FaultIn and SpillOut run under the block's
	// write lock, like the state transitions. Unregister has two callers:
	// the release of an emptied block, which runs inside the Free that holds
	// that same write lock, and a compaction merge dissolving its source,
	// which holds no lock but has raised the block's compacting flag under
	// it — and the only SpillOut caller (core's tryEvict) takes the lock and
	// turns away a compacting block before it gets here. A new caller of
	// any of the three must keep to one of those two.
	image []*mem.Frame
}

// refMax caps the clock reference counter: a block can bank at most this
// many untouched hand passes, bounding how long a gone-cold block can
// squat on frames.
const refMax = 3

// Base returns the block's primary virtual base address (the tier key).
func (h *Handle) Base() uint64 { return h.base }

// Pages returns the block's page count.
func (h *Handle) Pages() int { return h.pages }

// Class returns the size-class tag supplied at registration.
func (h *Handle) Class() int { return h.class }

// State returns the current residency state.
func (h *Handle) State() State { return State(h.state.Load()) }

// Touch banks a clock life (saturating at refMax); called on every block
// access.
func (h *Handle) Touch() {
	for {
		v := h.ref.Load()
		if v >= refMax {
			return
		}
		if h.ref.CompareAndSwap(v, v+1) {
			return
		}
	}
}

// Pin excludes the block from eviction until the matching Unpin. Pinning
// does not fault the block in — callers pin after ensuring residency.
func (h *Handle) Pin() { h.pins.Add(1) }

// Unpin releases a Pin.
func (h *Handle) Unpin() {
	if h.pins.Add(-1) < 0 {
		panic(fmt.Sprintf("tier: pin underflow on block %#x", h.base))
	}
}

// Pinned reports whether any Pin is outstanding.
func (h *Handle) Pinned() bool { return h.pins.Load() > 0 }

// SetHot marks the block as belonging to a hot class (AutoTuner label).
// Hot blocks get an extra life under the clock.
func (h *Handle) SetHot(hot bool) { h.hot.Store(hot) }

// Hot reports the hot-class label.
func (h *Handle) Hot() bool { return h.hot.Load() }

// Stats is a snapshot of residency-manager activity.
type Stats struct {
	SpillOuts      int64 // blocks evicted, written back or clean
	CleanEvictions int64 // of those, evictions whose tier image was still current: nothing written
	FaultIns       int64 // blocks faulted back in
	BytesSpilled   int64 // logical bytes written out to the tier (pre-compression)
	BytesRestored  int64 // logical bytes read back
	EvictedBlocks  int64 // blocks currently evicted
}

// Residency tracks which registered blocks are resident and picks eviction
// victims with a clock (second-chance) sweep. Spill-out and fault-in move
// whole blocks between mapped frames and the tier; the caller serializes
// both against data access with the block's own write lock, which is what
// "serializes fault-in against concurrent eviction" means in practice:
// both transitions need the same lock.
type Residency struct {
	space *mem.AddrSpace
	tier  Tier

	mu    sync.Mutex
	ring  []*Handle
	index map[uint64]*Handle
	hand  int

	spillOuts      atomic.Int64
	cleanEvictions atomic.Int64
	faultIns       atomic.Int64
	bytesSpilled   atomic.Int64
	bytesRestored  atomic.Int64
	evicted        atomic.Int64
}

// NewResidency creates a residency manager spilling into t (which must be
// non-nil) for blocks mapped in space.
func NewResidency(space *mem.AddrSpace, t Tier) *Residency {
	if t == nil {
		panic("tier: NewResidency with nil tier")
	}
	return &Residency{space: space, tier: t, index: make(map[uint64]*Handle)}
}

// Tier returns the spill tier.
func (r *Residency) Tier() Tier { return r.tier }

// Register adds a resident block to the clock ring and returns its handle.
// class is an opaque size-class tag used by Relabel.
func (r *Residency) Register(base uint64, pages, class int) *Handle {
	h := &Handle{base: base, pages: pages, class: class}
	h.ref.Store(2)
	r.mu.Lock()
	if _, ok := r.index[base]; ok {
		r.mu.Unlock()
		panic(fmt.Sprintf("tier: duplicate residency registration for %#x", base))
	}
	r.index[base] = h
	h.slot = len(r.ring)
	r.ring = append(r.ring, h)
	r.mu.Unlock()
	return h
}

// Unregister removes a block (being released or dissolved by compaction)
// and drops its tier image, spilled or retained. The caller must have
// faulted the block in first if its frames are about to be unmapped by the
// release path.
func (r *Residency) Unregister(h *Handle) {
	r.mu.Lock()
	if r.index[h.base] == h {
		delete(r.index, h.base)
		last := r.ring[len(r.ring)-1]
		r.ring[h.slot] = last
		last.slot = h.slot
		r.ring = r.ring[:len(r.ring)-1]
	}
	r.mu.Unlock()
	if h.State() == Evicted {
		r.evicted.Add(-1)
	}
	h.image = nil
	r.tier.Delete(h.base)
}

// Relabel refreshes every handle's hot bit from a per-class predicate —
// how the AutoTuner's hot/cold class labels reach the clock.
func (r *Residency) Relabel(isHot func(class int) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.ring {
		h.hot.Store(isHot(h.class))
	}
}

// Lookup returns the handle registered for base, or nil.
func (r *Residency) Lookup(base uint64) *Handle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.index[base]
}

// Len reports how many blocks are registered.
func (r *Residency) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// NextVictim advances the clock hand and returns the next eviction
// candidate, or nil when no resident block is evictable. Referenced blocks
// spend one banked life per pass instead of being evicted; hot-class
// blocks are spared one extra lap. Enough laps run to drain a full bank
// (refMax) and still find a victim. The caller re-validates the candidate
// under the block lock — the handle may have been touched, faulted, or
// unregistered by the time the caller acts on it.
func (r *Residency) NextVictim() *Handle {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.ring)
	if n == 0 {
		return nil
	}
	for lap := 0; lap <= refMax+1; lap++ {
		for i := 0; i < n; i++ {
			h := r.ring[r.hand%n]
			r.hand++
			if h.State() != Resident || h.Pinned() {
				continue
			}
			if v := h.ref.Load(); v > 0 {
				// A lost race means a concurrent Touch; either way the
				// block keeps at least one life this pass.
				h.ref.CompareAndSwap(v, v-1)
				continue
			}
			if h.hot.Load() && lap == 0 {
				continue // hot classes are spared the first lap
			}
			return h
		}
	}
	return nil
}

// SpillOut evicts a resident block: its bytes (if the space is byte-backed)
// move to the tier and its frames are unmapped, returning them to the
// budgeted allocator. The caller holds the block's write lock and has
// already checked the block is not compacting, aliased, or dissolved.
//
// The write-back is skipped — clean is true — when the tier still holds the
// image the block was last faulted in from and nothing has written the
// block since (the swap-cache rule): the bytes in the frames and in the
// tier are the same, so reading, compressing and storing them again would
// buy nothing.
func (r *Residency) SpillOut(h *Handle) (clean bool, err error) {
	if h.State() != Resident {
		return false, fmt.Errorf("tier: spill-out of %s block %#x", h.State(), h.base)
	}
	if h.Pinned() {
		// The clock skips pinned blocks, but a pin can land between
		// NextVictim and the caller's lock acquisition; re-check here,
		// under the same rw hold the pinner's fault-in used.
		return false, fmt.Errorf("tier: spill-out of pinned block %#x", h.base)
	}
	if clean = r.imageCurrent(h); clean {
		r.cleanEvictions.Add(1)
	} else if err := r.writeBack(h); err != nil {
		return false, err
	}
	h.image = nil
	r.space.Unmap(h.base, h.pages)
	h.state.Store(int32(Evicted))
	r.spillOuts.Add(1)
	r.evicted.Add(1)
	return clean, nil
}

// writeBack stores the block's current bytes (none, in accounting-only
// mode) as its tier image, replacing any stale one.
func (r *Residency) writeBack(h *Handle) error {
	size := h.pages * mem.PageSize
	var buf []byte
	if r.space.Phys().Backed() {
		sp := getScratch(size)
		defer scratch.Put(sp)
		buf = *sp
		if err := r.space.ReadAt(h.base, buf); err != nil {
			return fmt.Errorf("tier: spill-out read: %w", err)
		}
	}
	if err := r.tier.Put(h.base, buf); err != nil {
		return err
	}
	r.bytesSpilled.Add(int64(size))
	return nil
}

// imageCurrent reports whether the tier already holds exactly the bytes
// mapped at h's base, by the three conditions that make a retained image
// valid: FaultIn retained one, the tier confirms it still has it, and the
// frames FaultIn filled are still the ones mapped there with none written
// since. Any doubt is a write-back. The caller holds the block's write
// lock, which excludes every writer that takes the block lock; a one-sided
// write racing the eviction was already unordered against it.
func (r *Residency) imageCurrent(h *Handle) bool {
	if h.image == nil || !r.tier.Has(h.base) {
		return false
	}
	for i, f := range h.image {
		cur, _, ok := r.space.Translate(h.base + uint64(i)*mem.PageSize)
		if !ok || cur != f || f.Dirty() {
			return false
		}
	}
	return true
}

// FaultIn brings an evicted block back: fresh frames are allocated (which
// may itself evict colder blocks under budget pressure), mapped at the
// same virtual base — resuming the page generations, so stale RNIC
// translations from before the eviction still miss — and refilled from the
// tier. The image stays in the tier and the frames are filled without
// dirtying them, so a block evicted again before anything writes it skips
// the write-back; the price is that the tier holds up to one image per
// registered block rather than per evicted block, and the image of a block
// written since goes stale until its next eviction replaces it. The caller
// holds the block's write lock. A no-op if the block is already resident.
func (r *Residency) FaultIn(h *Handle) error {
	if h.State() == Resident {
		return nil
	}
	// Faulting blocks are invisible to the clock, so the frame allocation
	// below cannot pick this block as its own eviction victim.
	h.state.Store(int32(Faulting))
	frames := r.space.Phys().Alloc(h.pages)
	r.space.Map(h.base, frames)
	size := h.pages * mem.PageSize
	if r.space.Phys().Backed() {
		sp := getScratch(size)
		defer scratch.Put(sp)
		err := r.tier.Get(h.base, *sp)
		if err == nil {
			if err = r.space.FillAt(h.base, *sp); err != nil {
				err = fmt.Errorf("tier: fault-in fill: %w", err)
			}
		}
		if err != nil {
			// The spilled image is gone or corrupt: undo the mapping and
			// stay evicted so the failure is visible and retryable rather
			// than silently serving zeroed frames.
			r.space.Unmap(h.base, h.pages)
			h.state.Store(int32(Evicted))
			return err
		}
		h.image = frames
	} else {
		// Accounting-only frames carry no dirty bit worth trusting (nothing
		// is ever written through them): no image is retained.
		r.tier.Delete(h.base)
	}
	h.state.Store(int32(Resident))
	// Admit with a single life: a block faulted for a one-off cold access
	// is the next thing out, while a genuinely re-warmed block banks more
	// lives with every touch. Giving fault-ins full credit would let the
	// cold rotation clog the clock and drain the warm tail's lives.
	h.ref.Store(1)
	r.faultIns.Add(1)
	r.bytesRestored.Add(int64(size))
	r.evicted.Add(-1)
	return nil
}

// scratch pools the block-image copy buffers the spill/fault paths use;
// allocating a fresh one per transition feeds the GC exactly when the
// system is busiest. The pool holds *[]byte: a bare slice would be boxed,
// and so allocated, on every Put.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// getScratch borrows a size-byte buffer; return the box with scratch.Put.
func getScratch(size int) *[]byte {
	sp := scratch.Get().(*[]byte)
	if cap(*sp) < size {
		*sp = make([]byte, size)
	}
	*sp = (*sp)[:size]
	return sp
}

// Stats snapshots manager activity.
func (r *Residency) Stats() Stats {
	return Stats{
		SpillOuts:      r.spillOuts.Load(),
		CleanEvictions: r.cleanEvictions.Load(),
		FaultIns:       r.faultIns.Load(),
		BytesSpilled:   r.bytesSpilled.Load(),
		BytesRestored:  r.bytesRestored.Load(),
		EvictedBlocks:  r.evicted.Load(),
	}
}
