package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"corm/internal/alloc"
	"corm/internal/mem"
	"corm/internal/rnic"
	"corm/internal/tier"
)

// Store errors.
var (
	ErrNoClass     = errors.New("core: object size exceeds largest size class")
	ErrInvalidAddr = errors.New("core: address does not belong to any block")
	ErrNotFound    = errors.New("core: object not found (freed or released)")
	ErrCompacting  = errors.New("core: object locked by compaction, retry")
	ErrShortBuffer = errors.New("core: buffer smaller than object payload")
	ErrNoData      = errors.New("core: store is accounting-only (no data)")
)

// Stats aggregates store-level counters.
type Stats struct {
	Allocs, Frees    int64
	Reads, Writes    int64
	Corrections      int64 // pointer corrections performed (§3.2)
	CorrectionMisses int64 // corrections that found nothing (stale pointer)
	Releases         int64 // ReleasePtr calls
	Compactions      int64 // merge operations executed
	BlocksFreed      int64
	ObjectsMoved     int64 // objects whose offset changed (indirect pointers)
	VaddrsReused     int64
}

// counters is the store's live tally. Every field is atomic so hot-path
// operations (Read, Write, resolve) never rendezvous on a stats lock; Stats
// snapshots them into the exported plain-int64 Stats.
type counters struct {
	allocs, frees    atomic.Int64
	reads, writes    atomic.Int64
	corrections      atomic.Int64
	correctionMisses atomic.Int64
	releases         atomic.Int64
	compactions      atomic.Int64
	blocksFreed      atomic.Int64
	objectsMoved     atomic.Int64
	vaddrsReused     atomic.Int64
}

func (c *counters) snapshot() Stats {
	// Load order matters for cross-counter sanity under concurrent traffic:
	// a "consumer" counter (frees, correction misses) must be loaded before
	// the "producer" counter that bounds it (allocs, corrections). Loading
	// allocs first admits a snapshot where an alloc+free pair lands between
	// the two loads and Frees > Allocs — a drift that fails audits even
	// though every individual counter is exact. With this order each
	// consumer value is bounded by producer events that had already
	// completed, so Frees <= Allocs and CorrectionMisses <= Corrections
	// hold in every snapshot.
	frees := c.frees.Load()
	misses := c.correctionMisses.Load()
	blocksFreed := c.blocksFreed.Load()
	return Stats{
		Allocs: c.allocs.Load(), Frees: frees,
		Reads: c.reads.Load(), Writes: c.writes.Load(),
		Corrections:      c.corrections.Load(),
		CorrectionMisses: misses,
		Releases:         c.releases.Load(),
		Compactions:      c.compactions.Load(),
		BlocksFreed:      blocksFreed,
		ObjectsMoved:     c.objectsMoved.Load(),
		VaddrsReused:     c.vaddrsReused.Load(),
	}
}

// storeShards stripes the block-index maps. Each block-base vaddr hashes to
// one stripe, so operations on different blocks take different locks; the
// per-operation heavy lifting rides the per-block blockState locks anyway,
// leaving the stripes with only map lookups.
const storeShards = 64

// storeShard is one stripe of the block index. All three maps are keyed (or
// keyable) by block-base vaddr: states by the block's primary base, aliases
// and regions by any base (live or dissolved-and-aliased).
type storeShard struct {
	mu      sync.RWMutex
	states  map[*alloc.Block]*blockState
	aliases map[uint64]*blockState  // block-base vaddr (live or aliased) -> live block
	regions map[uint64]*rnic.Region // block-base vaddr -> NIC registration
}

// Store is one CoRM node.
//
// Lock hierarchy (documented order; all are leaves of each other — no code
// path holds two of them except shard.mu strictly before nothing):
//
//	shard.mu > { blockState.mu, blockState.rw, blockMeta.mu, vt.mu, rngMu }
//
// In practice shard critical sections only touch the maps; per-block work
// happens outside them under the blockState locks.
type Store struct {
	cfg    Config
	phys   *mem.Phys
	space  *mem.AddrSpace
	nic    *rnic.NIC
	proc   *alloc.ProcWide
	thread []*alloc.ThreadLocal

	shards [storeShards]storeShard

	rngMu sync.Mutex
	rng   *rand.Rand

	vt    *vaddrTracker
	stats counters

	// res manages block residency when a memory budget or tier is
	// configured (residency.go); nil otherwise. tierImpl is the spill
	// backend, kept for Close.
	res      *tier.Residency
	tierImpl tier.Tier

	// heatRefreshed throttles AutoTuner snapshots on the reclaim path
	// (unix nanos of the last Relabel).
	heatRefreshed atomic.Int64

	// canaryViolations counts guard-byte violations detected by this
	// store (canary.go). Per-store — the global registry counter sums
	// across every store in the process, which multi-node harnesses
	// cannot attribute.
	canaryViolations atomic.Int64

	// tuner, when attached, observes every alloc/free so the adaptive
	// compaction policy (§4.4 auto-labeling) sees real churn. An atomic
	// pointer: attachment may race with live traffic.
	tuner atomic.Pointer[AutoTuner]
}

// AttachTuner routes every subsequent AllocOn/Free through the tuner's
// Observe* counters. Pass nil to detach. Safe to call while serving.
func (s *Store) AttachTuner(t *AutoTuner) { s.tuner.Store(t) }

// Tuner returns the attached AutoTuner, or nil.
func (s *Store) Tuner() *AutoTuner { return s.tuner.Load() }

// shard returns the stripe owning a block-base vaddr.
func (s *Store) shard(base uint64) *storeShard {
	return &s.shards[(base/uint64(s.cfg.BlockBytes))%storeShards]
}

// NewStore builds a store from the configuration.
func NewStore(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	phys := mem.NewPhys(cfg.DataBacked)
	space := mem.NewAddrSpace(phys)
	proc, err := alloc.NewProcWide(space, cfg.allocConfig())
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:   cfg,
		phys:  phys,
		space: space,
		nic:   rnic.New(space, cfg.Model.NIC),
		proc:  proc,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		vt:    newVaddrTracker(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.states = make(map[*alloc.Block]*blockState)
		sh.aliases = make(map[uint64]*blockState)
		sh.regions = make(map[uint64]*rnic.Region)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.thread = append(s.thread, alloc.NewThreadLocal(i, proc))
	}
	if cfg.MemBudgetBytes > 0 || (cfg.TierSpec != "" && cfg.TierSpec != "off") {
		t, err := tier.Open(cfg.TierSpec)
		if err != nil {
			return nil, err
		}
		if t != nil {
			s.tierImpl = t
			s.res = tier.NewResidency(space, t)
			phys.SetBudget(int(cfg.MemBudgetBytes / mem.PageSize))
			phys.SetReclaimer(s.reclaimFrames)
			s.nic.SetPageFaultHandler(s.handleNICFault)
		}
	}
	proc.OnNewBlock = s.onNewBlock
	proc.OnReleaseBlock = s.onReleaseBlock
	return s, nil
}

// Config returns the store configuration (with defaults applied).
func (s *Store) Config() Config { return s.cfg }

// NIC returns the store's RNIC, which clients connect QPs to.
func (s *Store) NIC() *rnic.NIC { return s.nic }

// Space returns the store's address space.
func (s *Store) Space() *mem.AddrSpace { return s.space }

// Alloc reserves the process-wide allocator for tests and experiments.
func (s *Store) Allocator() *alloc.ProcWide { return s.proc }

// Workers returns the number of worker threads.
func (s *Store) Workers() int { return s.cfg.Workers }

// Stats snapshots the counters.
func (s *Store) Stats() Stats { return s.stats.snapshot() }

// ActiveBytes is the store's active physical memory (Figs 17-19).
func (s *Store) ActiveBytes() int64 { return s.phys.LiveBytes() }

// Stride returns the slot stride of a class index.
func (s *Store) Stride(class int) int {
	return s.proc.Config().Stride(s.cfg.Classes[class])
}

// ClassSize returns the payload size of a class index.
func (s *Store) ClassSize(class int) int { return s.cfg.Classes[class] }

// onNewBlock wires store-level state to a freshly mapped block.
func (s *Store) onNewBlock(b *alloc.Block) {
	st := &blockState{Block: b, meta: newBlockMeta(b.Slots)}
	var region *rnic.Region
	if s.cfg.DataBacked {
		var err error
		region, err = s.nic.Register(b.VAddr, s.cfg.BlockBytes, s.useODP())
		if err != nil {
			panic(fmt.Sprintf("core: block registration failed: %v", err))
		}
		st.region = regionRef{rkey: region.RKey}
	}
	if s.res != nil {
		st.resH = s.res.Register(b.VAddr, b.Pages, b.Class)
	}
	sh := s.shard(b.VAddr)
	sh.mu.Lock()
	if region != nil {
		sh.regions[b.VAddr] = region
	}
	sh.states[b] = st
	sh.aliases[b.VAddr] = st
	sh.mu.Unlock()
	cmBlocksLive.Inc()
	cmSlotsCapacity.Add(int64(b.Slots))
	cmBytesLive.Add(int64(s.cfg.BlockBytes))
}

// onReleaseBlock tears down store state before a block is unmapped. It
// runs inside the Free that emptied the block (the allocator's only release
// path), so the block's rw is write-held throughout — which is what lets it
// call FaultIn and Unregister, both of which write the handle's
// retained-image marker, without taking the lock itself.
func (s *Store) onReleaseBlock(b *alloc.Block) {
	sh := s.shard(b.VAddr)
	sh.mu.Lock()
	st := sh.states[b]
	delete(sh.states, b)
	delete(sh.aliases, b.VAddr)
	region := sh.regions[b.VAddr]
	delete(sh.regions, b.VAddr)
	sh.mu.Unlock()
	if st != nil {
		st.markDead() // stale references must not touch the unmapped vaddr
		st.takeAliases()
		if h := st.resH; h != nil {
			// The allocator unmaps the vaddr right after this callback, so
			// an evicted block must be re-mapped first. (In practice the
			// release path only runs on empty blocks, which went empty via
			// frees that faulted them in — this is belt-and-braces.)
			if h.State() != tier.Resident {
				if err := s.res.FaultIn(h); err == nil {
					cmEvictedBlocks.Dec()
				}
			}
			s.res.Unregister(h)
		}
	}
	if region != nil {
		s.nic.Deregister(region)
	}
	cmBlocksLive.Dec()
	cmSlotsCapacity.Add(-int64(b.Slots))
	cmBytesLive.Add(-int64(s.cfg.BlockBytes))
}

func (s *Store) useODP() bool { return s.cfg.Remap != RemapRereg }

// stateOf resolves the store state of a block.
func (s *Store) stateOf(b *alloc.Block) *blockState {
	sh := s.shard(b.VAddr)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.states[b]
}

// blockBase masks an address down to its block base.
func (s *Store) blockBase(vaddr uint64) uint64 {
	return vaddr &^ uint64(s.cfg.BlockBytes-1)
}

// resolveBase finds the live block serving a block-base vaddr (directly or
// through a compaction alias). This is the hottest store lookup — one
// shared-mode stripe lock, so concurrent resolves on different (and mostly
// even on the same) blocks proceed in parallel.
func (s *Store) resolveBase(base uint64) (*blockState, bool) {
	sh := s.shard(base)
	sh.mu.RLock()
	st, ok := sh.aliases[base]
	sh.mu.RUnlock()
	return st, ok
}

// drawID picks a fresh block-local random object ID (§3.1.2). IDs are
// drawn uniformly from the 2^IDBits space and redrawn on collision within
// the block, matching the no-replacement model of §3.4.
func (s *Store) drawID(st *blockState) uint16 {
	if !s.cfg.usesIDs() {
		return 0
	}
	if s.cfg.classStrategy(st.Slots) != StrategyCoRM {
		// Class not managed by ID-based compaction: IDs are unused.
		return 0
	}
	mask := uint16(1<<s.cfg.IDBits - 1)
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	for {
		id := uint16(s.rng.Intn(1<<s.cfg.IDBits)) & mask
		if !st.meta.hasID(id) {
			return id
		}
	}
}

// AllocResult reports an allocation plus the latency-relevant detail of
// whether the thread-local allocator had to refill (§4.1: +5 µs).
type AllocResult struct {
	Addr     Addr
	Refilled bool
}

// AllocOn allocates an object of the given payload size on a worker
// thread, returning its 128-bit pointer.
func (s *Store) AllocOn(thread int, size int) (AllocResult, error) {
	class := s.proc.Config().ClassFor(size)
	if class < 0 {
		return AllocResult{}, fmt.Errorf("%w: %d bytes", ErrNoClass, size)
	}
	// Slot claim and object initialization happen inside the thread-local
	// allocator's critical section (AllocAnd): a compaction leader collecting
	// this thread's blocks serializes on the same lock, so it can never merge
	// away a slot whose metadata and header are not yet written.
	//
	// pinned carries a residency pin across fault-then-retry rounds: the
	// fault-in below happens outside the allocator's critical section, so
	// without the pin an aggressive evictor could spill the target again
	// before the retry re-enters it — repeated forever, that starves the
	// allocation. The pin closes its own race lazily: an eviction already
	// past the pin check can spill the block once more, but the next round
	// faults it back in with the pin long since visible.
	var pinned *tier.Handle
	defer func() {
		if pinned != nil {
			pinned.Unpin()
		}
	}()
	for try := 0; ; try++ {
		var (
			addr    Addr
			postErr error
			faultSt *blockState
		)
		b, _, refilled := s.thread[thread].AllocAnd(class, func(b *alloc.Block, slot int, _ bool) error {
			st := s.stateOf(b)
			// Residency gate: the slot write below needs the block's frames
			// mapped, and eviction takes rw exclusively, so the check and
			// the write must sit under a shared rw hold — a bare state load
			// would race a spill between check and write. TryRLock, never a
			// blocking RLock: Free holds rw while re-acquiring this thread's
			// allocator mutex, so blocking here on the same block deadlocks.
			// Either failure aborts out of the critical section and retries
			// after an unlocked fault-in (faulting in here would invert the
			// lock order: reclaim takes block locks before waking the
			// allocator).
			if h := st.resH; h != nil {
				if !st.rw.TryRLock() {
					faultSt = st
					postErr = errNotResident
					return errNotResident
				}
				defer st.rw.RUnlock()
				if h.State() != tier.Resident {
					faultSt = st
					postErr = errNotResident
					return errNotResident
				}
				h.Touch()
			}
			id := s.drawID(st)
			st.meta.set(slot, id, b.VAddr)
			s.vt.incHome(b.VAddr)

			if s.cfg.DataBacked {
				raw := make([]byte, b.Stride)
				encodeHeader(raw, header{Version: 0, Lock: lockFree, Alloc: true, ID: id, Home: b.VAddr})
				if s.cfg.Consistency == ConsistencyChecksum {
					sealChecksum(raw, nil, s.cfg.Classes[class], 0)
				} else {
					tagLines(raw, 0)
				}
				if s.cfg.Canaries {
					paintCanary(raw, s.cfg.canaryStart(s.cfg.Classes[class], b.Stride))
				}
				if err := s.space.WriteAt(b.SlotAddr(slot), raw); err != nil {
					st.meta.clear(slot)
					s.vt.decHome(b.VAddr)
					postErr = err
					return err
				}
			}
			addr = MakeAddr(b.SlotAddr(slot), id, st.region.rkey, uint8(class))
			return nil
		})
		if b == nil {
			if errors.Is(postErr, errNotResident) && faultSt != nil && try < allocFaultRetries {
				if h := faultSt.resH; h != nil && h != pinned {
					// The allocator may have switched blocks since the
					// last round: move the pin to the current target.
					if pinned != nil {
						pinned.Unpin()
					}
					h.Pin()
					pinned = h
				}
				if err := s.ensureResidentSlow(faultSt); err != nil {
					return AllocResult{}, err
				}
				// If the abort was pure lock contention (block resident,
				// TryRLock lost), ensureResidentSlow was a no-op and the
				// tight retry loop would burn every round before the writer
				// is even scheduled. The writer may be a Free blocked on
				// this thread's allocator mutex — which the abort just
				// released — so a blocking rendezvous here is deadlock-free
				// and waits exactly as long as needed.
				faultSt.rw.RLock()
				faultSt.rw.RUnlock() //nolint:staticcheck // empty critical section is the wait
				continue
			}
			return AllocResult{}, postErr
		}

		s.stats.allocs.Add(1)
		cmAllocs.Inc()
		cmObjectsLive.Inc()
		if t := s.tuner.Load(); t != nil {
			t.ObserveAlloc(class)
		}
		return AllocResult{Addr: addr, Refilled: refilled}, nil
	}
}

// resolve locates the live block and slot for a pointer, performing
// pointer correction when the hinted slot does not hold the object
// (§3.2.1). It reports whether correction was needed.
func (s *Store) resolve(addr *Addr) (*blockState, int, bool, error) {
	for {
		st, slot, corrected, err := s.resolveOnce(addr)
		if err == errStaleResolve {
			continue
		}
		return st, slot, corrected, err
	}
}

// errStaleResolve signals that a lookup raced a completing merge and the
// base now resolves to a different live block: try again.
var errStaleResolve = errors.New("core: stale resolve")

func (s *Store) resolveOnce(addr *Addr) (*blockState, int, bool, error) {
	base := s.blockBase(addr.VAddr())
	st, ok := s.resolveBase(base)
	if !ok {
		return nil, 0, false, fmt.Errorf("%w: %#x", ErrInvalidAddr, addr.VAddr())
	}
	// The pointer may reference the block through a compaction alias, so
	// the slot is derived from the pointer's own block base, not the live
	// block's primary address (offsets are preserved across the alias).
	off := int(addr.VAddr() - base)
	if off%st.Stride != 0 || off >= st.Slots*st.Stride {
		return nil, 0, false, fmt.Errorf("%w: %#x not slot-aligned", ErrInvalidAddr, addr.VAddr())
	}
	slot := off / st.Stride
	// Optimistic hinted access: check the object at the hinted offset.
	if st.SlotUsed(slot) {
		id, _ := st.meta.at(slot)
		if id == addr.ID() {
			return st, slot, false, nil
		}
	}
	// Correction: find the object by ID. With messaging the owner answers
	// from its metadata; with scanning the serving thread walks the block.
	// Functionally both are a metadata search; their different costs and
	// availability are modeled by the RPC layer.
	found, ok := st.meta.lookup(addr.ID())
	if !ok || !st.SlotUsed(found) {
		if st.isCompacting() {
			// Mid-merge the object may already be detached from this
			// block while its alias still routes here: retryable, not
			// gone (§3.2.3).
			return nil, 0, false, ErrCompacting
		}
		// The lookup may have observed a merge's transient gap (object
		// detached from src, base not yet rerouted) that completed before
		// the compacting check above. If the base resolves elsewhere now,
		// the miss was stale — retry against the merge destination.
		if cur, ok2 := s.resolveBase(base); !ok2 || cur != st {
			return nil, 0, false, errStaleResolve
		}
		s.stats.corrections.Add(1)
		s.stats.correctionMisses.Add(1)
		cmCorrections.Inc()
		cmCorrectionMisses.Inc()
		return nil, 0, false, fmt.Errorf("%w: id %d in block %#x", ErrNotFound, addr.ID(), base)
	}
	addr.SetVAddr(base + uint64(found*st.Stride))
	addr.SetFlag(FlagIndirectObserved)
	s.stats.corrections.Add(1)
	cmCorrections.Inc()
	return st, found, true, nil
}

// Read copies an object's payload into buf via the RPC path, correcting
// the pointer if needed. buf must hold the class size; the raw slot is
// staged in a pooled buffer, so a read allocates nothing. It returns the
// payload length.
func (s *Store) Read(addr *Addr, buf []byte) (int, error) {
	return s.read(addr, buf, false)
}

// ReadStaged is Read without the internal staging buffer: the caller
// supplies buf of at least Stride(class) bytes, the raw slot is landed
// directly in it, and the payload is unpacked in place to buf[:size] — so
// the RPC server can serve reads straight into the outgoing wire frame
// with zero staging copies. In-place unpacking is safe because every
// packed payload byte sits strictly ahead of its destination (the 16-byte
// slot header plus one version-tag byte per cacheline), and copy has
// memmove semantics.
func (s *Store) ReadStaged(addr *Addr, buf []byte) (int, error) {
	return s.read(addr, buf, true)
}

// read is Read (staged=false) and ReadStaged (staged=true).
func (s *Store) read(addr *Addr, buf []byte, staged bool) (int, error) {
	st, slot, _, err := s.resolve(addr)
	if err != nil {
		return 0, err
	}
	size := s.ClassSize(st.Class)
	need := size
	if staged {
		need = st.Stride
	}
	if len(buf) < need {
		return 0, ErrShortBuffer
	}
	if !s.cfg.DataBacked {
		if err := st.gone(); err != nil {
			return 0, err
		}
		s.stats.reads.Add(1)
		cmReads.Inc()
		// Staged callers hand in uninitialized frame-buffer tails; keep
		// the payload deterministic either way.
		clear(buf[:size])
		return size, nil
	}
	// The liveness check lives under rw: merge flips the compacting flag
	// while holding rw exclusively, so an operation that passed the check
	// cannot still be in flight when the merge's copy phase begins — and a
	// stale reference to a dissolved or released block is caught here
	// before any memory access. The residency gate rides the same lock:
	// spill-out needs rw exclusively, so a block that was resident when the
	// read lock was granted stays resident until it is released.
	if err := s.rlockResident(st); err != nil {
		return 0, err
	}
	defer st.rw.RUnlock()
	s.stats.reads.Add(1)
	cmReads.Inc()
	raw := buf
	if !staged {
		sc := readScratchPool.Get().(*readScratch)
		defer readScratchPool.Put(sc)
		if cap(sc.b) < st.Stride {
			sc.b = make([]byte, st.Stride)
		}
		raw = sc.b
	}
	raw = raw[:st.Stride]
	if err := s.space.ReadAt(st.SlotAddr(slot), raw); err != nil {
		return 0, err
	}
	if !s.checkCanary(raw, size) {
		return 0, ErrCorruption
	}
	if s.cfg.Consistency == ConsistencyChecksum {
		copy(buf, raw[headerBytes:headerBytes+size])
	} else {
		unpackPayloadInto(buf, raw, size)
	}
	return size, nil
}

// readScratch wraps Read's stride-sized staging buffer so the sync.Pool
// round trip is a pointer (a bare []byte boxed into interface{} costs a
// heap-allocated slice header on every Put — exactly the per-read
// allocation the pool exists to remove). The payload is copied out before
// release, so reads cost zero marginal heap allocations on the hot path.
type readScratch struct{ b []byte }

var readScratchPool = sync.Pool{New: func() any { return &readScratch{make([]byte, 0, 4096)} }}

// Write updates an object's payload via the RPC path. The write protocol
// bumps the version, tags every cacheline, and writes line by line so
// concurrent one-sided readers can detect torn state (§3.2.3).
func (s *Store) Write(addr *Addr, payload []byte) error {
	st, slot, _, err := s.resolve(addr)
	if err != nil {
		return err
	}
	size := s.ClassSize(st.Class)
	if len(payload) > size {
		return fmt.Errorf("%w: payload %d > class %d", ErrShortBuffer, len(payload), size)
	}
	if !s.cfg.DataBacked {
		if err := st.gone(); err != nil {
			return err
		}
		s.stats.writes.Add(1)
		cmWrites.Inc()
		return nil
	}

	if err := s.lockResident(st); err != nil {
		return err
	}
	defer st.rw.Unlock()
	s.stats.writes.Add(1)
	cmWrites.Inc()
	base := st.SlotAddr(slot)
	sc := slotScratchPool.Get().(*slotScratch)
	defer slotScratchPool.Put(sc)
	raw, _ := sc.buffers(st.Stride, 0)
	if err := s.space.ReadAt(base, raw); err != nil {
		return err
	}
	h := decodeHeader(raw)
	return s.publishSlot(st, base, raw, h, h.Version+1, payload)
}

// publishSlot rebuilds a slot image around the new payload and writes it
// back with the torn-read-safe protocol: lock the header line, write the
// tail cachelines with the new version tags one by one (concurrent
// one-sided readers may interleave and must be able to detect the tear),
// then publish the header with the new version, unlocked. In checksum mode
// the equivalent lock/stream/seal sequence applies. The caller holds st.rw
// exclusively and supplies the current slot image in raw.
func (s *Store) publishSlot(st *blockState, base uint64, raw []byte, h header, newVersion uint32, payload []byte) error {
	if s.cfg.Consistency == ConsistencyChecksum {
		return s.writeChecksum(st, base, raw, h, newVersion, payload)
	}
	// 1. Lock the object: rewrite the header line with the write lock.
	h.Lock = lockWrite
	encodeHeader(raw, h)
	if err := s.space.WriteAt(base, raw[:cacheline]); err != nil {
		return err
	}
	// 2. Rebuild the slot image with the new payload and version tags,
	// then write the tail lines one by one (readers may interleave).
	packPayload(raw, payload)
	tagLines(raw, newVersion)
	for off := cacheline; off < st.Stride; off += cacheline {
		if err := s.space.WriteAt(base+uint64(off), raw[off:off+cacheline]); err != nil {
			return err
		}
	}
	// 3. Publish: write the header line with the new version, unlocked.
	h.Version = newVersion
	h.Lock = lockFree
	encodeHeader(raw, h)
	if err := s.space.WriteAt(base, raw[:cacheline]); err != nil {
		return err
	}
	return nil
}

// writeChecksum is the checksum-mode write protocol: lock, stream the new
// payload in cacheline-sized chunks (so concurrent one-sided readers can
// genuinely observe torn state), seal with the new checksum, and publish
// the new version unlocked. A reader racing any step sees either the lock
// bits or a checksum mismatch.
func (s *Store) writeChecksum(st *blockState, base uint64, raw []byte, h header, newVersion uint32, payload []byte) error {
	size := s.ClassSize(st.Class)
	h.Lock = lockWrite
	encodeHeader(raw, h)
	if err := s.space.WriteAt(base, raw[:headerBytes]); err != nil {
		return err
	}
	sealChecksum(raw, payload, size, newVersion)
	for off := headerBytes; off < st.Stride; off += cacheline {
		end := off + cacheline
		if end > st.Stride {
			end = st.Stride
		}
		if err := s.space.WriteAt(base+uint64(off), raw[off:end]); err != nil {
			return err
		}
	}
	h.Version = newVersion
	h.Lock = lockFree
	encodeHeader(raw, h)
	return s.space.WriteAt(base, raw[:headerBytes])
}

// Free releases an object (§2, Table 2), correcting the pointer first. The
// freeing is routed to the owning thread to preserve the block-ownership
// invariant.
func (s *Store) Free(addr *Addr) error {
	st, slot, _, err := s.resolve(addr)
	if err != nil {
		return err
	}
	// Held across the whole mutation so a merge that starts concurrently
	// (its lock phase takes rw exclusively) either waits for this free or
	// is observed by the compacting check. The slot rewrite below needs
	// the block resident, hence the residency-gated acquire.
	if err := s.lockResident(st); err != nil {
		return err
	}
	// Last chance to catch an overflow into this slot's guard tail before
	// the slot is recycled and the evidence repainted. The free proceeds
	// either way — the slot must not leak — but the violation is recorded
	// and reported to the caller.
	corrupt := false
	if s.cfg.Canaries && s.cfg.DataBacked {
		raw := make([]byte, st.Stride)
		if s.space.ReadAt(st.SlotAddr(slot), raw) == nil {
			corrupt = !s.checkCanary(raw, s.ClassSize(st.Class))
		}
	}
	_, home := st.meta.clear(slot)
	if s.cfg.DataBacked {
		// Mark the stored slot free so one-sided readers reject it.
		s.clearAllocBit(st, slot)
	}
	// Route to the owner thread, re-reading ownership if a compaction
	// leader collected the block between the read and the free.
	for {
		owner := st.Owner()
		if owner < 0 || owner >= len(s.thread) {
			owner = 0
		}
		err := s.thread[owner].Free(st.Block, slot)
		if err == nil {
			break
		}
		if !errors.Is(err, alloc.ErrWrongOwner) {
			st.rw.Unlock()
			return err
		}
	}
	st.rw.Unlock()
	s.stats.frees.Add(1)
	cmFrees.Inc()
	cmObjectsLive.Dec()
	if t := s.tuner.Load(); t != nil {
		t.ObserveFree(st.Class)
	}
	if pages, reuse := s.vt.decHome(home); reuse {
		s.releaseAlias(home, pages)
	}
	if corrupt {
		return ErrCorruption
	}
	return nil
}

// ReleasePtr tells the store that every copy of an old pointer has been
// corrected: the object is rebased onto its current block address, and the
// old home address may become reusable (§3.3). It returns the rebased
// pointer the client should use from now on.
func (s *Store) ReleasePtr(addr *Addr) (Addr, error) {
	st, slot, _, err := s.resolve(addr)
	if err != nil {
		return Addr{}, err
	}
	if err := s.lockResident(st); err != nil {
		return Addr{}, err
	}
	s.stats.releases.Add(1)
	cmReleases.Inc()
	id, home := st.meta.at(slot)
	if home == st.VAddr {
		// Pointer already references the live block: nothing to release.
		st.rw.Unlock()
		return MakeAddr(st.SlotAddr(slot), id, st.region.rkey, uint8(st.Class)), nil
	}
	st.meta.setHome(slot, st.VAddr)
	s.vt.incHome(st.VAddr)
	if s.cfg.DataBacked {
		s.rewriteHome(st, slot, st.VAddr)
	}
	st.rw.Unlock()
	if pages, reuse := s.vt.decHome(home); reuse {
		s.releaseAlias(home, pages)
	}
	return MakeAddr(st.SlotAddr(slot), id, st.region.rkey, uint8(st.Class)), nil
}

// clearAllocBit rewrites a slot header with the allocated bit cleared. The
// caller holds st.rw exclusively.
func (s *Store) clearAllocBit(st *blockState, slot int) {
	base := st.SlotAddr(slot)
	line := make([]byte, headerBytes)
	if err := s.space.ReadAt(base, line); err != nil {
		return
	}
	h := decodeHeader(line)
	h.Alloc = false
	encodeHeader(line, h)
	s.space.WriteAt(base, line)
}

// rewriteHome updates the home field inside a stored object header. The
// caller holds st.rw exclusively.
func (s *Store) rewriteHome(st *blockState, slot int, home uint64) {
	base := st.SlotAddr(slot)
	line := make([]byte, headerBytes)
	if err := s.space.ReadAt(base, line); err != nil {
		return
	}
	h := decodeHeader(line)
	h.Home = home
	encodeHeader(line, h)
	s.space.WriteAt(base, line)
}

// releaseAlias retires a dissolved block address whose last homed object
// is gone: the alias mapping is unmapped, its NIC region deregistered, and
// the address returned to the reuse pool.
func (s *Store) releaseAlias(vaddr uint64, pages int) {
	sh := s.shard(vaddr)
	sh.mu.Lock()
	st := sh.aliases[vaddr]
	delete(sh.aliases, vaddr)
	region := sh.regions[vaddr]
	delete(sh.regions, vaddr)
	sh.mu.Unlock()
	if st != nil {
		st.removeAlias(vaddr)
	}
	s.stats.vaddrsReused.Add(1)
	cmVaddrsReused.Inc()
	if region != nil {
		s.nic.Deregister(region)
	}
	s.proc.RetireVaddr(vaddr, pages)
}

// PendingVaddrs reports dissolved block addresses still awaiting release.
func (s *Store) PendingVaddrs() int { return s.vt.pendingReuse() }

// Fragmentation exposes the per-class policy input (§3.1.3).
func (s *Store) Fragmentation(class int) alloc.FragStats {
	return s.proc.Fragmentation(class)
}

// NeedsCompaction lists classes whose fragmentation ratio exceeds the
// configured threshold (§3.1.3).
func (s *Store) NeedsCompaction() []int {
	var out []int
	for c := range s.cfg.Classes {
		f := s.proc.Fragmentation(c)
		if f.GrantedBytes > 0 && f.Ratio > s.cfg.FragThreshold {
			out = append(out, c)
		}
	}
	return out
}

// blockState carries a sync.RWMutex for the RPC read/write path; defined
// here to keep meta.go focused on metadata.
func (st *blockState) isCompacting() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.compacting
}

func (st *blockState) setCompacting(v bool) {
	st.mu.Lock()
	st.compacting = v
	st.mu.Unlock()
}

// markDissolved flags a merged-away block. Called while compacting is still
// set, so concurrent operations cannot observe neither flag.
func (st *blockState) markDissolved() {
	st.mu.Lock()
	st.dissolved = true
	st.mu.Unlock()
}

// markDead flags a block released back to the process-wide allocator.
func (st *blockState) markDead() {
	st.mu.Lock()
	st.dead = true
	st.mu.Unlock()
}

// gone classifies a stale blockState reference: err is ErrCompacting when
// the block is compaction-locked or was dissolved since resolve (the caller
// retries and re-resolves to the merge destination), ErrNotFound when the
// block was released entirely (every object it held was freed). The caller
// holds st.rw in either mode, which orders this check against the merge
// lock phase and against Free's release path.
func (st *blockState) gone() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case st.dead:
		return ErrNotFound
	case st.compacting, st.dissolved:
		return ErrCompacting
	}
	return nil
}
