// Package mem simulates the physical-memory substrate CoRM builds on.
//
// The real system allocates physical pages with memfd_create (anonymous
// 16 MiB in-RAM files), identifies a physical block by (file descriptor,
// page offset), and maps/remaps virtual pages onto those physical pages
// with mmap. This package reproduces that model in software:
//
//   - Frame: one 4 KiB physical page, identified by (FD, offset), with a
//     reference count. Two virtual blocks aliasing the same frames — the
//     essence of CoRM/Mesh compaction — is simply two page-table entries
//     holding the same *Frame.
//   - Phys: the frame allocator (the memfd_create model). It tracks live
//     frames, which is exactly the "active memory" metric of Figs 17-19.
//   - AddrSpace: a per-process virtual address space with a page table,
//     bump allocation of block-aligned virtual ranges, remapping, and a
//     per-page generation counter that lets the simulated RNIC detect
//     stale translations (ODP).
//
// Frames optionally carry real bytes (Backed). The accounting-only mode
// runs the 8-GiB-scale allocation traces of the paper without touching
// that much host memory.
package mem

import (
	"fmt"
	"sync"
)

const (
	// PageSize is the size of one physical page, as in the paper.
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
	// FileSize is the size of one simulated memfd file (§3.1.1).
	FileSize = 16 << 20
	// PagesPerFile is how many frames one memfd file provides.
	PagesPerFile = FileSize / PageSize
)

// FrameID uniquely identifies a physical page as (file descriptor, byte
// offset inside the file), mirroring the paper's physical block naming.
type FrameID struct {
	FD  int
	Off int64
}

func (id FrameID) String() string { return fmt.Sprintf("fd%d+%#x", id.FD, id.Off) }

// Frame is one simulated physical page.
type Frame struct {
	ID    FrameID
	refs  int
	freed bool   // on the free list; guards double-release / use-after-free
	data  []byte // nil when the allocator is not byte-backed
	phys  *Phys

	// dataMu serializes byte access at page granularity. This mirrors DMA
	// atomicity: single-cacheline (and in our model, single-page) accesses
	// are atomic, while multi-page or multi-access sequences can observe
	// torn state — exactly the hazard CoRM's cacheline versioning detects.
	dataMu sync.Mutex
	// dirty is the page's PTE dirty bit, guarded by dataMu: WriteBytes — the
	// one funnel every mutation goes through — sets it, Phys.Alloc hands the
	// frame out with it clear, and fill (the tier restoring an image) leaves
	// it alone. A frame that is still clean when its block is evicted holds
	// exactly what the tier filled it with, so the image need not be written
	// back (tier.Residency.SpillOut).
	dirty bool
}

// Data returns the page's bytes, or nil in accounting-only mode. The slice
// is read-only by contract — a store through it would bypass the dirty bit
// and be lost at the block's next eviction — and callers that may race
// with writers must use ReadBytes/WriteBytes instead.
func (f *Frame) Data() []byte { return f.data }

// ReadBytes copies from the page at off under the page lock.
func (f *Frame) ReadBytes(off int, buf []byte) {
	f.dataMu.Lock()
	copy(buf, f.data[off:off+len(buf)])
	f.dataMu.Unlock()
}

// WriteBytes copies into the page at off under the page lock and marks the
// page dirty.
func (f *Frame) WriteBytes(off int, buf []byte) {
	f.dataMu.Lock()
	copy(f.data[off:off+len(buf)], buf)
	f.dirty = true
	f.dataMu.Unlock()
}

// fill is WriteBytes for restoring a page's saved image (AddrSpace.FillAt):
// the bytes now match the saved copy, so the dirty bit is not set.
func (f *Frame) fill(off int, buf []byte) {
	f.dataMu.Lock()
	copy(f.data[off:off+len(buf)], buf)
	f.dataMu.Unlock()
}

// Dirty reports whether the page has been written (WriteBytes) since Phys
// handed the frame out.
func (f *Frame) Dirty() bool {
	f.dataMu.Lock()
	defer f.dataMu.Unlock()
	return f.dirty
}

// Refs returns the current mapping count (for tests and invariant checks).
func (f *Frame) Refs() int {
	f.phys.mu.Lock()
	defer f.phys.mu.Unlock()
	return f.refs
}

// Phys allocates and recycles physical frames.
type Phys struct {
	mu      sync.Mutex
	backed  bool
	nextFD  int
	nextOff int64
	free    []*Frame
	live    int
	peak    int
	files   int

	// budget caps live frames (0 = unlimited). When an Alloc would exceed
	// it, reclaim is invoked (without p.mu held) to evict cold mappings;
	// the budget is soft — if reclaim cannot free enough, the allocation
	// proceeds anyway and overruns counts the breach.
	budget   int
	reclaim  func(needPages int) int
	overruns int64
	reclaims int64
}

// NewPhys creates a frame allocator. If backed is true every frame carries
// a real 4 KiB buffer; otherwise frames are metadata-only.
func NewPhys(backed bool) *Phys {
	return &Phys{backed: backed, nextFD: 1}
}

// Backed reports whether frames carry real bytes.
func (p *Phys) Backed() bool { return p.backed }

// maxReclaimAttempts bounds how many eviction rounds one Alloc triggers
// before it gives up and breaches the (soft) budget.
const maxReclaimAttempts = 3

// SetBudget caps live frames at pages (0 = unlimited).
func (p *Phys) SetBudget(pages int) {
	p.mu.Lock()
	p.budget = pages
	p.mu.Unlock()
}

// Budget returns the live-frame cap (0 = unlimited).
func (p *Phys) Budget() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.budget
}

// SetReclaimer installs the eviction hook Alloc invokes, with p.mu
// released, when an allocation would exceed the budget. The hook returns
// how many pages it managed to free.
func (p *Phys) SetReclaimer(f func(needPages int) int) {
	p.mu.Lock()
	p.reclaim = f
	p.mu.Unlock()
}

// BudgetOverruns counts allocations that proceeded past the budget after
// reclaim could not free enough frames.
func (p *Phys) BudgetOverruns() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.overruns
}

// Reclaims counts reclaim-hook invocations driven by budget pressure.
func (p *Phys) Reclaims() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reclaims
}

// Alloc returns n frames. Frames are handed out with a reference count of
// zero; mapping them into an AddrSpace takes references. Under a frame
// budget, allocations that would exceed it first ask the reclaimer to
// evict cold mappings; the budget is soft, so after bounded reclaim
// attempts the allocation succeeds regardless.
func (p *Phys) Alloc(n int) []*Frame {
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		over := p.budget > 0 && p.live+n > p.budget
		if !over || p.reclaim == nil || attempt >= maxReclaimAttempts {
			if over {
				p.overruns++
			}
			out := p.allocLocked(n)
			p.mu.Unlock()
			return out
		}
		need := p.live + n - p.budget
		reclaim := p.reclaim
		p.reclaims++
		p.mu.Unlock()
		// Invoked without p.mu: the reclaimer evicts mappings, which calls
		// back into decRef/release on this allocator.
		reclaim(need)
	}
}

func (p *Phys) allocLocked(n int) []*Frame {
	out := make([]*Frame, 0, n)
	for len(p.free) > 0 && len(out) < n {
		f := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		f.freed = false
		f.dataMu.Lock()
		clear(f.data)
		f.dirty = false
		f.dataMu.Unlock()
		out = append(out, f)
	}
	for len(out) < n {
		// Open a new 16 MiB memfd file when the current one is exhausted
		// (or on first use).
		if p.files == 0 || p.nextOff >= FileSize {
			p.files++
			p.nextFD = p.files
			p.nextOff = 0
		}
		f := &Frame{ID: FrameID{FD: p.nextFD, Off: p.nextOff}, phys: p}
		if p.backed {
			f.data = make([]byte, PageSize)
		}
		p.nextOff += PageSize
		out = append(out, f)
	}
	p.live += n
	if p.live > p.peak {
		p.peak = p.live
	}
	return out
}

// release returns a frame to the free list once its refcount drops to zero.
// Callers hold p.mu. Releasing a frame that is already free would double-
// count it on the free list and silently corrupt the live-frame accounting
// (the paper's "active memory" metric), so it panics with the frame's
// identity instead.
func (p *Phys) release(f *Frame) {
	if f.freed {
		panic("mem: double release of frame " + f.ID.String())
	}
	f.freed = true
	p.free = append(p.free, f)
	p.live--
}

// incRef takes a mapping reference on f.
func (p *Phys) incRef(f *Frame) {
	p.mu.Lock()
	if f.freed {
		p.mu.Unlock()
		panic("mem: reference to freed frame " + f.ID.String())
	}
	f.refs++
	p.mu.Unlock()
}

// decRef drops a mapping reference; at zero the frame is recycled.
func (p *Phys) decRef(f *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f.refs--
	if f.refs < 0 {
		panic("mem: frame refcount underflow " + f.ID.String())
	}
	if f.refs == 0 {
		p.release(f)
	}
}

// DropUnmapped recycles frames that were allocated but never mapped.
func (p *Phys) DropUnmapped(frames []*Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range frames {
		if f.refs == 0 {
			p.release(f)
		}
	}
}

// LivePages reports frames currently in use (mapped or allocated-unmapped).
func (p *Phys) LivePages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// LiveBytes is LivePages in bytes — the paper's "active memory".
func (p *Phys) LiveBytes() int64 { return int64(p.LivePages()) * PageSize }

// PeakPages reports the high-water mark of live frames.
func (p *Phys) PeakPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// Files reports how many simulated memfd files were created.
func (p *Phys) Files() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.files
}
