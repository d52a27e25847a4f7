// Package rnic simulates an RDMA-capable network interface card.
//
// The NIC keeps its own Memory Translation Table (MTT): a snapshot of
// virtual-to-physical page translations taken at memory-registration time,
// exactly as described in §2.2.1 of the paper. One-sided reads and writes
// go through the MTT, *not* through the OS page table — so if the host
// remaps a page (compaction) without refreshing the NIC, the NIC keeps
// accessing the old physical frame. CoRM's three remap strategies (§3.5)
// are reproduced:
//
//   - Rereg: ibv_rereg_mr refreshes the MTT but opens a window during
//     which any access through the region breaks the QP (InfiniBand spec
//     behaviour the authors observed);
//   - ODP: MTT entries are invalidated on remap; the next access takes an
//     ODP fault, refreshing the entry from the OS at a ~63 µs cost;
//   - ODP+prefetch: ibv_advise_mr installs fresh entries ahead of time.
//
// The NIC also models the bounded translation cache real RNICs have: an
// LRU over page translations whose misses add latency and inbound-engine
// occupancy. This is what makes Zipf workloads faster than uniform ones
// (Fig 12) and fragmented memory slower than compacted memory (Fig 14).
//
// The package is time-free: operations return a Cost breakdown that the
// discrete-event simulation charges to its virtual clock; the TCP mode
// simply ignores costs.
package rnic

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"corm/internal/mem"
	"corm/internal/timing"
)

// Errors returned by verb operations.
var (
	ErrInvalidKey  = errors.New("rnic: invalid rkey")
	ErrOutOfBounds = errors.New("rnic: access outside registered region")
	ErrQPBroken    = errors.New("rnic: queue pair in error state")
	ErrUnmapped    = errors.New("rnic: MTT entry missing (page never registered)")
	ErrNoODP       = errors.New("rnic: device has no ODP support")
)

// Cost is the timing breakdown of one NIC operation. Latency is the
// critical-path contribution; Engine is inbound-engine occupancy, which
// bounds aggregate throughput.
type Cost struct {
	Latency   time.Duration
	Engine    time.Duration
	CacheMiss bool
	ODPFault  bool
}

func (c Cost) add(o Cost) Cost {
	return Cost{
		Latency:   c.Latency + o.Latency,
		Engine:    c.Engine + o.Engine,
		CacheMiss: c.CacheMiss || o.CacheMiss,
		ODPFault:  c.ODPFault || o.ODPFault,
	}
}

// mttEntry is the NIC's snapshot of one page translation.
type mttEntry struct {
	frame *mem.Frame
	gen   uint64
}

// Region is a registered memory region with its access keys.
type Region struct {
	LKey, RKey uint32
	Base       uint64
	Len        int
	ODP        bool

	// reregging marks an ibv_rereg_mr in progress: accesses break the QP.
	reregging bool
	valid     bool
}

// Contains reports whether [vaddr, vaddr+n) lies inside the region.
func (r *Region) Contains(vaddr uint64, n int) bool {
	return vaddr >= r.Base && vaddr+uint64(n) <= r.Base+uint64(r.Len)
}

// Stats aggregates NIC counters.
type Stats struct {
	Reads, Writes int64
	CacheHits     int64
	CacheMisses   int64
	ODPFaults     int64
	QPBreaks      int64
	StaleReads    int64 // reads served from a stale (non-ODP) translation
	HostFaults    int64 // accesses that invoked the host page-fault handler
	BytesRead     int64
	BytesWritten  int64
}

// NIC is a simulated RDMA card attached to one host address space.
type NIC struct {
	Model timing.NIC

	mu      sync.Mutex
	space   *mem.AddrSpace
	regions map[uint32]*Region
	// pages indexes the regions by the virtual pages they touch, so the
	// per-page lookups of Invalidate and AdviseMR cost one map probe however
	// many regions are registered (the store registers one per block).
	// Register and Deregister maintain it. Registrations may overlap, as
	// ibv_reg_mr allows, so a page holds a list; the common case is one entry.
	pages   map[uint64][]*Region
	mtt     map[uint64]mttEntry
	cache   *lruCache
	nextKey uint32
	nextQP  uint64
	qps     map[uint64]*QP // live (connected, unclosed) queue pairs
	stats   Stats

	// faultHandler, when set, is the host's page-fault upcall: a one-sided
	// access to a page that is not live in the OS page table (an evicted
	// block, under elastic memory) invokes it — with n.mu released — to
	// fault the backing block in, then retries the translation. This is
	// the simulated counterpart of ODP's kernel fault handler resolving a
	// non-present page before the NIC retries the DMA.
	faultHandler func(vaddr uint64) error
}

// New creates a NIC over the given address space with the given model.
func New(space *mem.AddrSpace, model timing.NIC) *NIC {
	return &NIC{
		Model:   model,
		space:   space,
		regions: make(map[uint32]*Region),
		pages:   make(map[uint64][]*Region),
		mtt:     make(map[uint64]mttEntry),
		cache:   newLRU(model.MTTCacheEntries),
		qps:     make(map[uint64]*QP),
	}
}

// LiveQPs reports how many connected queue pairs have not been closed —
// a real RNIC has a bounded QP table, so leaked QPs are a resource bug.
func (n *NIC) LiveQPs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.qps)
}

// BreakAllQPs forces every live QP into the error state, modeling a fabric
// event (link flap, switch reset) that kills all connections at once. Fault
// injection uses this to exercise reconnect paths deterministically.
func (n *NIC) BreakAllQPs() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, qp := range n.qps {
		if !qp.broken {
			qp.breakLocked()
		}
	}
}

// Space returns the host address space the NIC is attached to.
func (n *NIC) Space() *mem.AddrSpace { return n.space }

// SetPageFaultHandler installs the host upcall used when an ODP access
// touches a page with no live OS translation (see NIC.faultHandler). The
// handler runs without NIC locks held and may call back into the NIC
// (AdviseMR, Invalidate).
func (n *NIC) SetPageFaultHandler(h func(vaddr uint64) error) {
	n.mu.Lock()
	n.faultHandler = h
	n.mu.Unlock()
}

// errNeedHostFault is an internal sentinel from translateLocked: the page
// is not live in the OS page table and a fault handler is installed, so
// the caller must release n.mu, invoke the handler, and retry.
var errNeedHostFault = errors.New("rnic: host page fault required")

// Stats returns a snapshot of the NIC counters.
func (n *NIC) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the counters (between experiment phases).
func (n *NIC) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// Register registers [base, base+length) for remote access, snapshotting
// the page translations into the MTT (pinning, in the real system). odp
// selects on-demand paging for the region.
func (n *NIC) Register(base uint64, length int, odp bool) (*Region, error) {
	if odp && !n.Model.HasODP {
		return nil, ErrNoODP
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextKey++
	r := &Region{
		LKey:  n.nextKey,
		RKey:  n.nextKey | 0x8000_0000,
		Base:  base,
		Len:   length,
		ODP:   odp,
		valid: true,
	}
	if err := n.snapshotLocked(base, length); err != nil {
		return nil, err
	}
	n.regions[r.RKey] = r
	for vp, last := pageSpan(base, length); vp <= last; vp++ {
		n.pages[vp] = append(n.pages[vp], r)
	}
	return r, nil
}

// pageSpan returns the first and last virtual page of [base, base+length).
func pageSpan(base uint64, length int) (first, last uint64) {
	return base >> mem.PageShift, (base + uint64(length) - 1) >> mem.PageShift
}

// snapshotLocked copies OS translations for a range into the MTT.
func (n *NIC) snapshotLocked(base uint64, length int) error {
	for vp, last := pageSpan(base, length); vp <= last; vp++ {
		f, gen, ok := n.space.TranslateEntry(vp << mem.PageShift)
		if !ok {
			return fmt.Errorf("%w: page %#x", ErrUnmapped, vp<<mem.PageShift)
		}
		n.mtt[vp] = mttEntry{frame: f, gen: gen}
	}
	return nil
}

// Deregister removes a region and its MTT entries.
func (n *NIC) Deregister(r *Region) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r.valid = false
	delete(n.regions, r.RKey)
	for vp, last := pageSpan(r.Base, r.Len); vp <= last; vp++ {
		delete(n.mtt, vp)
		n.cache.remove(vp)
		rs := n.pages[vp]
		for i, x := range rs {
			if x == r {
				rs = append(rs[:i], rs[i+1:]...)
				break
			}
		}
		if len(rs) == 0 {
			delete(n.pages, vp)
		} else {
			n.pages[vp] = rs
		}
	}
}

// BeginRereg starts an ibv_rereg_mr on the region: until EndRereg, any
// access through it breaks the issuing QP (observed ConnectX behaviour,
// §3.5 strategy 1). The DES holds the window open for Model.Rereg(pages).
func (n *NIC) BeginRereg(r *Region) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r.reregging = true
}

// EndRereg completes the re-registration: the MTT is refreshed from the OS
// page table and the keys are preserved.
func (n *NIC) EndRereg(r *Region) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	r.reregging = false
	return n.snapshotLocked(r.Base, r.Len)
}

// Invalidate marks the MTT entries for a page range invalid, as the OS MMU
// notifier does for ODP regions when their mapping changes. The next access
// takes an ODP fault. For non-ODP regions this models nothing happening:
// the stale snapshot stays (the dangerous case).
func (n *NIC) Invalidate(base uint64, length int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for vp, last := pageSpan(base, length); vp <= last; vp++ {
		if r := n.regionForLocked(vp << mem.PageShift); r != nil && r.ODP {
			delete(n.mtt, vp)
			n.cache.remove(vp)
		}
	}
}

// AdviseMR prefetches fresh translations for a range of an ODP region
// (ibv_advise_mr), avoiding the fault on the next access.
func (n *NIC) AdviseMR(base uint64, length int) (Cost, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.regionForLocked(base)
	if r == nil {
		return Cost{}, ErrOutOfBounds
	}
	if !r.ODP {
		return Cost{}, ErrNoODP
	}
	if err := n.snapshotLocked(base, length); err != nil {
		return Cost{}, err
	}
	return Cost{Latency: n.Model.AdviseMR}, nil
}

// regionForLocked returns a registered region containing vaddr, or nil.
func (n *NIC) regionForLocked(vaddr uint64) *Region {
	for _, r := range n.pages[vaddr>>mem.PageShift] {
		if r.Contains(vaddr, 1) {
			return r
		}
	}
	return nil
}

// translate resolves one page through the MTT, applying cache, ODP and
// staleness semantics. Callers hold n.mu.
func (n *NIC) translateLocked(vp uint64, r *Region) (*mem.Frame, Cost, error) {
	var cost Cost
	if n.cache.touch(vp) {
		n.stats.CacheHits++
		rmCacheHits.Add(1)
	} else {
		n.stats.CacheMisses++
		rmCacheMisses.Add(1)
		cost.CacheMiss = true
		cost.Latency += n.Model.MTTMissLatency
		cost.Engine += n.Model.MTTMissEngine
		n.cache.insert(vp)
	}
	e, ok := n.mtt[vp]
	if ok && r.ODP {
		// ODP regions stay coherent with the OS: a generation change is
		// detected as an invalidation even if the MMU notifier callback
		// (Invalidate) was not explicitly delivered.
		if _, gen, live := n.space.TranslateEntry(vp << mem.PageShift); !live || gen != e.gen {
			ok = false
		}
	}
	if !ok {
		if !r.ODP {
			return nil, cost, fmt.Errorf("%w: page %#x", ErrUnmapped, vp<<mem.PageShift)
		}
		// ODP fault: fetch the current translation from the OS.
		f, gen, live := n.space.TranslateEntry(vp << mem.PageShift)
		if !live {
			if n.faultHandler != nil {
				// Evicted block: the host must fault it in first.
				return nil, cost, errNeedHostFault
			}
			return nil, cost, fmt.Errorf("%w: page %#x", ErrUnmapped, vp<<mem.PageShift)
		}
		n.mtt[vp] = mttEntry{frame: f, gen: gen}
		n.stats.ODPFaults++
		rmODPFaults.Add(1)
		cost.ODPFault = true
		cost.Latency += n.Model.ODPMiss
		return f, cost, nil
	}
	if !r.ODP {
		// Staleness accounting: the NIC can't know, but tests can.
		if _, gen, live := n.space.TranslateEntry(vp << mem.PageShift); live && gen != e.gen {
			n.stats.StaleReads++
			rmStaleReads.Add(1)
		}
	}
	return e.frame, cost, nil
}
