package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPhysAllocUniqueIDs(t *testing.T) {
	p := NewPhys(false)
	seen := make(map[FrameID]bool)
	for _, f := range p.Alloc(3 * PagesPerFile) {
		if seen[f.ID] {
			t.Fatalf("duplicate frame id %v", f.ID)
		}
		seen[f.ID] = true
	}
	if p.Files() != 3 {
		t.Fatalf("files = %d, want 3 (16 MiB each)", p.Files())
	}
	if p.LivePages() != 3*PagesPerFile {
		t.Fatalf("live = %d", p.LivePages())
	}
}

func TestPhysRecycle(t *testing.T) {
	p := NewPhys(true)
	s := NewAddrSpace(p)
	frames := p.Alloc(4)
	v := s.ReserveBlock(4)
	s.Map(v, frames)
	frames[0].data[0] = 0xAB
	s.Unmap(v, 4)
	if p.LivePages() != 0 {
		t.Fatalf("live after unmap = %d, want 0", p.LivePages())
	}
	again := p.Alloc(4)
	if len(again) != 4 {
		t.Fatal("recycle failed")
	}
	for _, f := range again {
		for _, b := range f.data {
			if b != 0 {
				t.Fatal("recycled frame not zeroed")
			}
		}
	}
	if p.PeakPages() != 4 {
		t.Fatalf("peak = %d, want 4", p.PeakPages())
	}
}

func TestReserveBlockAlignment(t *testing.T) {
	s := NewAddrSpace(NewPhys(false))
	for _, pages := range []int{1, 2, 4, 8, 16, 64, 256} {
		v := s.ReserveBlock(pages)
		if v%(uint64(pages)*PageSize) != 0 {
			t.Fatalf("block of %d pages at %#x not size-aligned", pages, v)
		}
	}
}

func TestReserveBlockDistinct(t *testing.T) {
	s := NewAddrSpace(NewPhys(false))
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		v := s.ReserveBlock(4)
		if seen[v] {
			t.Fatalf("reused live address %#x", v)
		}
		seen[v] = true
	}
}

func TestRetireAndReuse(t *testing.T) {
	s := NewAddrSpace(NewPhys(false))
	v1 := s.ReserveBlock(2)
	s.RetireBlock(v1, 2)
	if s.ReusablePool(2) != 1 {
		t.Fatal("retired address not pooled")
	}
	v2 := s.ReserveBlock(2)
	if v2 != v1 {
		t.Fatalf("expected reuse of %#x, got %#x", v1, v2)
	}
	// Different size class pulls a fresh address.
	v3 := s.ReserveBlock(4)
	if v3 == v1 {
		t.Fatal("reused address across different block sizes")
	}
}

func TestRemapAliasesFrames(t *testing.T) {
	p := NewPhys(true)
	s := NewAddrSpace(p)

	src := p.Alloc(1)
	dst := p.Alloc(1)
	vSrc, vDst := s.ReserveBlock(1), s.ReserveBlock(1)
	s.Map(vSrc, src)
	s.Map(vDst, dst)
	dst[0].data[7] = 42

	// The compaction step: point the source vaddr at the destination frame.
	s.Remap(vSrc, dst)

	if p.LivePages() != 1 {
		t.Fatalf("source frame not released: live = %d", p.LivePages())
	}
	var b [1]byte
	if err := s.ReadAt(vSrc+7, b[:]); err != nil || b[0] != 42 {
		t.Fatalf("aliased read = %v/%v, want 42", b[0], err)
	}
	if err := s.ReadAt(vDst+7, b[:]); err != nil || b[0] != 42 {
		t.Fatalf("original read = %v/%v, want 42", b[0], err)
	}
	// Writing through one alias is visible through the other.
	if err := s.WriteAt(vDst+7, []byte{99}); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(vSrc+7, b[:]); err != nil || b[0] != 99 {
		t.Fatalf("alias write not visible: %v", b[0])
	}
	// Frame is shared by two mappings.
	if dst[0].Refs() != 2 {
		t.Fatalf("refs = %d, want 2", dst[0].Refs())
	}
	s.Unmap(vSrc, 1)
	if dst[0].Refs() != 1 || p.LivePages() != 1 {
		t.Fatal("unmap of alias must keep the frame alive")
	}
	s.Unmap(vDst, 1)
	if p.LivePages() != 0 {
		t.Fatal("frame leaked after final unmap")
	}
}

func TestRemapBumpsGeneration(t *testing.T) {
	p := NewPhys(false)
	s := NewAddrSpace(p)
	v := s.ReserveBlock(1)
	s.Map(v, p.Alloc(1))
	_, g0, ok := s.TranslateEntry(v)
	if !ok || g0 != 0 {
		t.Fatalf("initial generation = %d", g0)
	}
	s.Remap(v, p.Alloc(1))
	_, g1, _ := s.TranslateEntry(v)
	if g1 != g0+1 {
		t.Fatalf("generation after remap = %d, want %d", g1, g0+1)
	}
}

func TestTranslateUnmapped(t *testing.T) {
	s := NewAddrSpace(NewPhys(false))
	if _, _, ok := s.Translate(arenaBase + 0x5000); ok {
		t.Fatal("translate of unmapped address succeeded")
	}
	if err := NewAddrSpace(NewPhys(true)).ReadAt(arenaBase, make([]byte, 8)); err == nil {
		t.Fatal("read of unmapped address should fail")
	}
}

func TestAccountingModeRejectsData(t *testing.T) {
	p := NewPhys(false)
	s := NewAddrSpace(p)
	v := s.ReserveBlock(1)
	s.Map(v, p.Alloc(1))
	if err := s.ReadAt(v, make([]byte, 1)); err == nil {
		t.Fatal("accounting-only space must reject data access")
	}
}

func TestCrossPageReadWrite(t *testing.T) {
	p := NewPhys(true)
	s := NewAddrSpace(p)
	v := s.ReserveBlock(2)
	s.Map(v, p.Alloc(2))

	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i)
	}
	at := v + PageSize - 150 // straddles the page boundary
	if err := s.WriteAt(at, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 300)
	if err := s.ReadAt(at, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-page roundtrip mismatch")
	}
}

func TestDoubleMapPanics(t *testing.T) {
	p := NewPhys(false)
	s := NewAddrSpace(p)
	v := s.ReserveBlock(1)
	s.Map(v, p.Alloc(1))
	defer func() {
		if recover() == nil {
			t.Fatal("double map did not panic")
		}
	}()
	s.Map(v, p.Alloc(1))
}

func TestRetireMappedPanics(t *testing.T) {
	p := NewPhys(false)
	s := NewAddrSpace(p)
	v := s.ReserveBlock(1)
	s.Map(v, p.Alloc(1))
	defer func() {
		if recover() == nil {
			t.Fatal("retiring a mapped block did not panic")
		}
	}()
	s.RetireBlock(v, 1)
}

func TestDropUnmapped(t *testing.T) {
	p := NewPhys(false)
	frames := p.Alloc(8)
	if p.LivePages() != 8 {
		t.Fatal("alloc accounting wrong")
	}
	p.DropUnmapped(frames)
	if p.LivePages() != 0 {
		t.Fatalf("live = %d after drop", p.LivePages())
	}
}

// Property: any sequence of reserve/map/write/read roundtrips bytes exactly,
// and unmapping everything returns live pages to zero.
func TestQuickMapWriteReadRoundtrip(t *testing.T) {
	f := func(seed int64, sizes []uint8) bool {
		p := NewPhys(true)
		s := NewAddrSpace(p)
		type blk struct {
			v     uint64
			pages int
			data  []byte
		}
		var blocks []blk
		for i, raw := range sizes {
			pages := int(raw%4) + 1
			v := s.ReserveBlock(pages)
			s.Map(v, p.Alloc(pages))
			data := make([]byte, pages*PageSize)
			for j := range data {
				data[j] = byte(int(seed) + i + j)
			}
			if err := s.WriteAt(v, data); err != nil {
				return false
			}
			blocks = append(blocks, blk{v, pages, data})
			if len(blocks) >= 8 {
				break
			}
		}
		for _, b := range blocks {
			got := make([]byte, len(b.data))
			if err := s.ReadAt(b.v, got); err != nil || !bytes.Equal(got, b.data) {
				return false
			}
		}
		for _, b := range blocks {
			s.Unmap(b.v, b.pages)
		}
		return p.LivePages() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: remapping a chain of aliases onto a single frame keeps exactly
// one live page, and every alias reads the same data.
func TestQuickAliasChain(t *testing.T) {
	f := func(n uint8, payload uint8) bool {
		count := int(n%6) + 2
		p := NewPhys(true)
		s := NewAddrSpace(p)
		var vaddrs []uint64
		for i := 0; i < count; i++ {
			v := s.ReserveBlock(1)
			s.Map(v, p.Alloc(1))
			vaddrs = append(vaddrs, v)
		}
		target, _, _ := s.Translate(vaddrs[0])
		target.data[3] = payload
		for _, v := range vaddrs[1:] {
			s.Remap(v, []*Frame{target})
		}
		if p.LivePages() != 1 {
			return false
		}
		for _, v := range vaddrs {
			var b [1]byte
			if err := s.ReadAt(v+3, b[:]); err != nil || b[0] != payload {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameDirtyBit pins the dirty bit's life cycle: frames leave Phys
// clean, FillAt (restoring a saved image) and reads keep them clean, every
// WriteAt/WriteBytes dirties exactly the pages it touches, and a recycled
// frame is handed out clean again.
func TestFrameDirtyBit(t *testing.T) {
	p := NewPhys(true)
	s := NewAddrSpace(p)
	v := s.ReserveBlock(3)
	frames := p.Alloc(3)
	s.Map(v, frames)
	dirty := func() [3]bool {
		return [3]bool{frames[0].Dirty(), frames[1].Dirty(), frames[2].Dirty()}
	}
	if dirty() != [3]bool{} {
		t.Fatalf("fresh frames dirty: %v", dirty())
	}

	image := make([]byte, 3*PageSize)
	for i := range image {
		image[i] = byte(i * 7)
	}
	if err := s.FillAt(v, image); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(image))
	if err := s.ReadAt(v, got); err != nil || !bytes.Equal(got, image) {
		t.Fatalf("FillAt did not land the image: %v", err)
	}
	if dirty() != [3]bool{} {
		t.Fatalf("FillAt or ReadAt dirtied frames: %v", dirty())
	}

	// A write straddling pages 1 and 2 dirties those two and only those.
	if err := s.WriteAt(v+2*PageSize-4, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if dirty() != [3]bool{false, true, true} {
		t.Fatalf("dirty after straddling write = %v, want [false true true]", dirty())
	}
	frames[0].WriteBytes(0, []byte{1})
	if !frames[0].Dirty() {
		t.Fatal("WriteBytes did not dirty the frame")
	}
	// Filling over a dirty page does not launder it.
	if err := s.FillAt(v, image[:PageSize]); err != nil {
		t.Fatal(err)
	}
	if !frames[0].Dirty() {
		t.Fatal("FillAt cleared a dirty bit")
	}

	s.Unmap(v, 3)
	for _, f := range p.Alloc(3) {
		if f.Dirty() {
			t.Fatalf("recycled frame %v handed out dirty", f.ID)
		}
	}
}

// TestFillAtAccountingMode: like every data access, FillAt is rejected
// when frames carry no bytes.
func TestFillAtAccountingMode(t *testing.T) {
	p := NewPhys(false)
	s := NewAddrSpace(p)
	v := s.ReserveBlock(1)
	s.Map(v, p.Alloc(1))
	if err := s.FillAt(v, make([]byte, 8)); err == nil {
		t.Fatal("FillAt succeeded in accounting-only mode")
	}
}
