package mem

import (
	"fmt"
	"sync"
)

// AddrSpace is a simulated per-process virtual address space: a page table
// from virtual page numbers to physical frames, plus a bump allocator for
// fresh block-aligned virtual ranges and a reuse pool for retired ones
// (§3.3: virtual address reuse after compaction).
//
// Every mapped page carries a generation counter that increments on remap.
// The simulated RNIC snapshots (frame, generation) pairs into its MTT at
// registration time and uses the generation to detect stale translations,
// which is how ODP consistency is modeled.
type AddrSpace struct {
	mu    sync.RWMutex
	phys  *Phys
	pages map[uint64]*pte
	next  uint64 // bump pointer for fresh virtual addresses (page units)
	reuse map[int][]uint64

	// lastGen remembers the generation a page had when it was unmapped, so
	// a later re-map resumes at lastGen+1. Without this, an evict/fault-in
	// cycle would hand the RNIC a fresh mapping at generation zero and the
	// ODP staleness check (mtt gen != page gen) could not tell the new
	// frames from the ones it snapshotted before eviction.
	lastGen map[uint64]uint64

	mapped int // currently mapped pages
}

type pte struct {
	frame *Frame
	gen   uint64
}

// base of the simulated virtual arena; arbitrary non-zero 48-bit-range value
// so addresses look like real pointers and zero stays invalid.
const arenaBase = uint64(0x1000_0000_0000)

// NewAddrSpace creates an address space drawing frames from phys.
func NewAddrSpace(phys *Phys) *AddrSpace {
	return &AddrSpace{
		phys:    phys,
		pages:   make(map[uint64]*pte),
		next:    arenaBase >> PageShift,
		reuse:   make(map[int][]uint64),
		lastGen: make(map[uint64]uint64),
	}
}

// Phys returns the backing frame allocator.
func (s *AddrSpace) Phys() *Phys { return s.phys }

// ReserveBlock returns a fresh virtual address for a block of the given
// page count, aligned to the block size. Retired addresses of the same
// size are reused first (§3.3).
func (s *AddrSpace) ReserveBlock(pages int) uint64 {
	if pages <= 0 {
		panic("mem: ReserveBlock with pages <= 0")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if pool := s.reuse[pages]; len(pool) > 0 {
		addr := pool[len(pool)-1]
		s.reuse[pages] = pool[:len(pool)-1]
		return addr
	}
	// Align the bump pointer to the block size so block bases can be
	// recovered from interior addresses by masking.
	p := uint64(pages)
	s.next = (s.next + p - 1) / p * p
	addr := s.next << PageShift
	s.next += p
	return addr
}

// RetireBlock returns a virtual block address to the reuse pool. The range
// must already be unmapped.
func (s *AddrSpace) RetireBlock(vaddr uint64, pages int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vp := vaddr >> PageShift
	for i := uint64(0); i < uint64(pages); i++ {
		if _, ok := s.pages[vp+i]; ok {
			panic(fmt.Sprintf("mem: RetireBlock of mapped range %#x", vaddr))
		}
	}
	s.reuse[pages] = append(s.reuse[pages], vaddr)
}

// ReusablePool reports how many retired addresses of the given page count
// are available (tests, Table 1's "vaddr reuse" property).
func (s *AddrSpace) ReusablePool(pages int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.reuse[pages])
}

// Map installs frames at vaddr (one frame per page). Each frame gains a
// reference. Mapping over an existing mapping panics; use Remap.
func (s *AddrSpace) Map(vaddr uint64, frames []*Frame) {
	if vaddr&(PageSize-1) != 0 {
		panic("mem: Map of unaligned address")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	vp := vaddr >> PageShift
	for i, f := range frames {
		if _, ok := s.pages[vp+uint64(i)]; ok {
			panic(fmt.Sprintf("mem: double map at %#x", vaddr+uint64(i)*PageSize))
		}
		s.phys.incRef(f)
		gen := uint64(0)
		if last, ok := s.lastGen[vp+uint64(i)]; ok {
			gen = last + 1
			delete(s.lastGen, vp+uint64(i))
		}
		s.pages[vp+uint64(i)] = &pte{frame: f, gen: gen}
		s.mapped++
	}
}

// Remap points an existing mapping at new frames, bumping each page's
// generation: this is the mmap-over + MTT-invalidation step of compaction.
// Old frames lose a reference (and are recycled at zero).
func (s *AddrSpace) Remap(vaddr uint64, frames []*Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vp := vaddr >> PageShift
	for i, f := range frames {
		e, ok := s.pages[vp+uint64(i)]
		if !ok {
			panic(fmt.Sprintf("mem: Remap of unmapped page %#x", vaddr+uint64(i)*PageSize))
		}
		old := e.frame
		s.phys.incRef(f)
		e.frame = f
		e.gen++
		s.phys.decRef(old)
	}
}

// Unmap removes the mapping for pages pages at vaddr, dropping frame
// references.
func (s *AddrSpace) Unmap(vaddr uint64, pages int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vp := vaddr >> PageShift
	for i := 0; i < pages; i++ {
		e, ok := s.pages[vp+uint64(i)]
		if !ok {
			panic(fmt.Sprintf("mem: Unmap of unmapped page %#x", vaddr+uint64(i)*PageSize))
		}
		s.phys.decRef(e.frame)
		s.lastGen[vp+uint64(i)] = e.gen
		delete(s.pages, vp+uint64(i))
		s.mapped--
	}
}

// Translate resolves a virtual address to its frame and in-page offset.
func (s *AddrSpace) Translate(vaddr uint64) (*Frame, int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.pages[vaddr>>PageShift]
	if !ok {
		return nil, 0, false
	}
	return e.frame, int(vaddr & (PageSize - 1)), true
}

// TranslateEntry additionally returns the page generation, for the RNIC's
// MTT mirroring.
func (s *AddrSpace) TranslateEntry(vaddr uint64) (*Frame, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.pages[vaddr>>PageShift]
	if !ok {
		return nil, 0, false
	}
	return e.frame, e.gen, true
}

// MappedPages reports the number of live page-table entries.
func (s *AddrSpace) MappedPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mapped
}

// ReadAt copies len(buf) bytes from virtual address vaddr, crossing page
// boundaries as needed. It fails if any page is unmapped or the space is
// not byte-backed.
func (s *AddrSpace) ReadAt(vaddr uint64, buf []byte) error {
	return s.access(vaddr, buf, accessRead)
}

// WriteAt copies buf into virtual memory at vaddr, dirtying the pages.
func (s *AddrSpace) WriteAt(vaddr uint64, buf []byte) error {
	return s.access(vaddr, buf, accessWrite)
}

// FillAt is WriteAt for restoring a saved image of the range (the tier's
// fault-in): the pages' dirty bits are left as they are, so frames fresh
// from Phys stay clean until something else writes them.
func (s *AddrSpace) FillAt(vaddr uint64, buf []byte) error {
	return s.access(vaddr, buf, accessFill)
}

// accessOp selects access's per-page operation. A switch, not a function
// value: an indirect call would make every caller's buffer escape.
type accessOp int

const (
	accessRead accessOp = iota
	accessWrite
	accessFill
)

func (s *AddrSpace) access(vaddr uint64, buf []byte, op accessOp) error {
	if !s.phys.Backed() {
		return fmt.Errorf("mem: data access in accounting-only mode")
	}
	done := 0
	for done < len(buf) {
		f, off, ok := s.Translate(vaddr + uint64(done))
		if !ok {
			return fmt.Errorf("mem: page fault at %#x", vaddr+uint64(done))
		}
		n := PageSize - off
		if n > len(buf)-done {
			n = len(buf) - done
		}
		switch op {
		case accessRead:
			f.ReadBytes(off, buf[done:done+n])
		case accessWrite:
			f.WriteBytes(off, buf[done:done+n])
		case accessFill:
			f.fill(off, buf[done:done+n])
		}
		done += n
	}
	return nil
}
