package tier

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"corm/internal/mem"
)

func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%7)
	}
	return b
}

func testTierRoundtrip(t *testing.T, tr Tier) {
	t.Helper()
	a := patterned(2*mem.PageSize, 3)
	b := patterned(mem.PageSize, 9)
	if err := tr.Put(0x1000, a); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(0x2000, b); err != nil {
		t.Fatal(err)
	}
	if tr.Blocks() != 2 {
		t.Fatalf("blocks = %d, want 2", tr.Blocks())
	}
	if !tr.Has(0x1000) || !tr.Has(0x2000) || tr.Has(0xdead) {
		t.Fatal("Has disagrees with what was Put")
	}
	got := make([]byte, len(a))
	if err := tr.Get(0x1000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Fatal("roundtrip mismatch")
	}
	// Replacement updates accounting rather than double-counting.
	if err := tr.Put(0x1000, b); err != nil {
		t.Fatal(err)
	}
	if tr.Blocks() != 2 {
		t.Fatalf("blocks after replace = %d, want 2", tr.Blocks())
	}
	got = make([]byte, len(b))
	if err := tr.Get(0x1000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("replace mismatch")
	}
	if err := tr.Get(0xdead, got); err == nil {
		t.Fatal("Get of unknown key succeeded")
	}
	tr.Delete(0x1000)
	if tr.Blocks() != 1 {
		t.Fatalf("blocks after delete = %d, want 1", tr.Blocks())
	}
	if err := tr.Get(0x1000, got); err == nil {
		t.Fatal("Get after delete succeeded")
	}
	if tr.Has(0x1000) {
		t.Fatal("Has after delete")
	}
	tr.Delete(0x1000) // idempotent
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedRoundtrip(t *testing.T) {
	c := NewCompressed()
	testTierRoundtrip(t, c)
}

func TestCompressedActuallyCompresses(t *testing.T) {
	c := NewCompressed()
	// A zero-heavy page, as cold blocks tend to be.
	if err := c.Put(1, make([]byte, 16*mem.PageSize)); err != nil {
		t.Fatal(err)
	}
	if c.StoredBytes() >= 16*mem.PageSize/4 {
		t.Fatalf("stored %d bytes for a zeroed 64 KiB image", c.StoredBytes())
	}
}

// TestCompressedStoresExactSizeBlobs: StoredBytes counts len(blob), so the
// blob must not drag a larger backing array (the staging buffer's doubling
// growth) into the map with it.
func TestCompressedStoresExactSizeBlobs(t *testing.T) {
	c := NewCompressed()
	for key := uint64(1); key <= 4; key++ {
		if err := c.Put(key, patterned(int(key)*mem.PageSize, byte(key))); err != nil {
			t.Fatal(err)
		}
	}
	var held int64
	for key, blob := range c.blobs {
		if cap(blob) != len(blob) {
			t.Fatalf("blob %d: len %d but cap %d", key, len(blob), cap(blob))
		}
		held += int64(cap(blob))
	}
	if held != c.StoredBytes() {
		t.Fatalf("StoredBytes = %d, blobs hold %d", c.StoredBytes(), held)
	}
}

func TestDiskRoundtrip(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testTierRoundtrip(t, d)
}

func TestDiskOwnedDirRemovedOnClose(t *testing.T) {
	d, err := NewDisk("")
	if err != nil {
		t.Fatal(err)
	}
	dir := d.Dir()
	if err := d.Put(7, patterned(mem.PageSize, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "block-0000000000000007.spill")); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("owned spill dir survived Close: %v", err)
	}
}

func TestOpenSpecs(t *testing.T) {
	if tr, err := Open(""); err != nil || tr != nil {
		t.Fatalf("Open(\"\") = %v, %v", tr, err)
	}
	if tr, err := Open("off"); err != nil || tr != nil {
		t.Fatalf("Open(off) = %v, %v", tr, err)
	}
	tr, err := Open("compressed")
	if err != nil || tr == nil || tr.Name() != "compressed" {
		t.Fatalf("Open(compressed) = %v, %v", tr, err)
	}
	dir := t.TempDir()
	tr, err = Open("disk:" + dir)
	if err != nil || tr.Name() != "disk" {
		t.Fatalf("Open(disk:) = %v, %v", tr, err)
	}
	if tr.(*Disk).Dir() != dir {
		t.Fatalf("disk dir = %s, want %s", tr.(*Disk).Dir(), dir)
	}
	tr.Close()
	if _, err := os.Stat(dir); err != nil {
		t.Fatal("Close removed a caller-owned directory")
	}
	if _, err := Open("tape"); err == nil {
		t.Fatal("Open accepted unknown spec")
	}
}

// newTestResidency maps pages-sized blocks into a fresh byte-backed space.
func newTestResidency(t *testing.T, blocks, pages int) (*Residency, *mem.AddrSpace, []*Handle) {
	t.Helper()
	space := mem.NewAddrSpace(mem.NewPhys(true))
	r := NewResidency(space, NewCompressed())
	handles := make([]*Handle, blocks)
	for i := range handles {
		v := space.ReserveBlock(pages)
		space.Map(v, space.Phys().Alloc(pages))
		handles[i] = r.Register(v, pages, i%3)
	}
	return r, space, handles
}

func TestSpillOutFaultInRoundtrip(t *testing.T) {
	r, space, hs := newTestResidency(t, 1, 2)
	h := hs[0]
	payload := patterned(2*mem.PageSize, 42)
	if err := space.WriteAt(h.Base(), payload); err != nil {
		t.Fatal(err)
	}

	if _, err := r.SpillOut(h); err != nil {
		t.Fatal(err)
	}
	if h.State() != Evicted {
		t.Fatalf("state = %v, want evicted", h.State())
	}
	if space.Phys().LivePages() != 0 {
		t.Fatalf("frames not released: %d", space.Phys().LivePages())
	}
	if err := space.ReadAt(h.Base(), make([]byte, 1)); err == nil {
		t.Fatal("evicted vaddr still readable")
	}
	if _, err := r.SpillOut(h); err == nil {
		t.Fatal("double spill-out succeeded")
	}

	if err := r.FaultIn(h); err != nil {
		t.Fatal(err)
	}
	if h.State() != Resident {
		t.Fatalf("state = %v, want resident", h.State())
	}
	got := make([]byte, len(payload))
	if err := space.ReadAt(h.Base(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("bytes corrupted across spill/fault cycle")
	}
	if err := r.FaultIn(h); err != nil {
		t.Fatal("re-fault-in of resident block should be a no-op")
	}

	st := r.Stats()
	if st.SpillOuts != 1 || st.FaultIns != 1 || st.EvictedBlocks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesSpilled != 2*mem.PageSize || st.BytesRestored != 2*mem.PageSize {
		t.Fatalf("byte accounting = %+v", st)
	}
}

// TestFaultInFailureStaysEvicted pins the error path: if the spilled
// image is gone, fault-in must roll the mapping back and stay evicted
// rather than serve zeroed frames.
func TestFaultInFailureStaysEvicted(t *testing.T) {
	r, space, hs := newTestResidency(t, 1, 1)
	h := hs[0]
	if _, err := r.SpillOut(h); err != nil {
		t.Fatal(err)
	}
	r.Tier().Delete(h.Base()) // sabotage
	if err := r.FaultIn(h); err == nil {
		t.Fatal("fault-in of deleted image succeeded")
	}
	if h.State() != Evicted {
		t.Fatalf("state = %v, want evicted after failed fault-in", h.State())
	}
	if space.Phys().LivePages() != 0 {
		t.Fatalf("failed fault-in leaked %d frames", space.Phys().LivePages())
	}
	if h.image != nil {
		t.Fatal("failed fault-in left a retained-image marker")
	}
}

// readBlock returns the bytes mapped at h's base.
func readBlock(t *testing.T, space *mem.AddrSpace, h *Handle) []byte {
	t.Helper()
	buf := make([]byte, h.Pages()*mem.PageSize)
	if err := space.ReadAt(h.Base(), buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// cycled returns a one-block residency whose block has been written,
// evicted and faulted back in: resident, clean, image retained.
func cycled(t *testing.T, pages int, seed byte) (*Residency, *mem.AddrSpace, *Handle) {
	t.Helper()
	r, space, hs := newTestResidency(t, 1, pages)
	h := hs[0]
	if err := space.WriteAt(h.Base(), patterned(pages*mem.PageSize, seed)); err != nil {
		t.Fatal(err)
	}
	if clean, err := r.SpillOut(h); err != nil || clean {
		t.Fatalf("first spill-out: clean=%v err=%v (a never-evicted block has no image)", clean, err)
	}
	if err := r.FaultIn(h); err != nil {
		t.Fatal(err)
	}
	return r, space, h
}

// TestCleanEvictionSkipsWriteBack is the swap-cache rule: a block evicted
// again without having been written since its fault-in writes nothing to
// the tier and still comes back byte-identical.
func TestCleanEvictionSkipsWriteBack(t *testing.T) {
	r, space, h := cycled(t, 2, 5)
	want := patterned(2*mem.PageSize, 5)
	if !bytes.Equal(readBlock(t, space, h), want) { // reads do not dirty
		t.Fatal("fault-in corrupted the block")
	}
	if r.Tier().Blocks() != 1 {
		t.Fatal("fault-in dropped the tier image")
	}
	before := r.Stats()
	clean, err := r.SpillOut(h)
	if err != nil || !clean {
		t.Fatalf("second spill-out: clean=%v err=%v, want a clean eviction", clean, err)
	}
	st := r.Stats()
	if st.CleanEvictions != 1 || st.SpillOuts != before.SpillOuts+1 || st.BytesSpilled != before.BytesSpilled {
		t.Fatalf("clean eviction accounting: %+v -> %+v", before, st)
	}
	if space.Phys().LivePages() != 0 {
		t.Fatal("clean eviction kept frames")
	}
	if err := r.FaultIn(h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readBlock(t, space, h), want) {
		t.Fatal("bytes changed across a clean eviction")
	}
}

// TestDirtyBlockWritesBack: one written byte anywhere in the block makes
// its next eviction replace the (now stale) tier image.
func TestDirtyBlockWritesBack(t *testing.T) {
	r, space, h := cycled(t, 2, 5)
	want := patterned(2*mem.PageSize, 5)
	want[mem.PageSize+17] ^= 0xFF
	if err := space.WriteAt(h.Base()+mem.PageSize+17, want[mem.PageSize+17:mem.PageSize+18]); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	if clean, err := r.SpillOut(h); err != nil || clean {
		t.Fatalf("spill-out of a written block: clean=%v err=%v", clean, err)
	}
	if st := r.Stats(); st.CleanEvictions != 0 || st.BytesSpilled != before.BytesSpilled+2*mem.PageSize {
		t.Fatalf("write-back accounting: %+v -> %+v", before, st)
	}
	if err := r.FaultIn(h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readBlock(t, space, h), want) {
		t.Fatal("write lost across eviction")
	}
	// The fresh image is retained in turn.
	if clean, err := r.SpillOut(h); err != nil || !clean {
		t.Fatalf("eviction after the write-back cycle: clean=%v err=%v", clean, err)
	}
}

// TestCleanEvictionNeedsTheTierImage is TestFaultInFailureStaysEvicted's
// sabotage moved earlier: the image of a resident clean block disappears
// from the tier. The next eviction must notice and write the block back —
// trusting the marker would unmap the only copy.
func TestCleanEvictionNeedsTheTierImage(t *testing.T) {
	r, space, h := cycled(t, 1, 8)
	r.Tier().Delete(h.Base()) // sabotage
	if clean, err := r.SpillOut(h); err != nil || clean {
		t.Fatalf("spill-out with the image gone: clean=%v err=%v", clean, err)
	}
	if err := r.FaultIn(h); err != nil {
		t.Fatalf("block lost: %v", err)
	}
	if !bytes.Equal(readBlock(t, space, h), patterned(mem.PageSize, 8)) {
		t.Fatal("block corrupted")
	}
}

// TestRemapDropsRetainedImage: the retained image describes the frames
// FaultIn filled. If the base is remapped onto other frames — even clean
// ones — the image no longer describes what is mapped there.
func TestRemapDropsRetainedImage(t *testing.T) {
	r, space, h := cycled(t, 1, 8)
	other := space.Phys().Alloc(1)
	space.Remap(h.Base(), other)
	want := patterned(mem.PageSize, 99)
	if err := space.FillAt(h.Base(), want); err != nil { // clean frame, different bytes
		t.Fatal(err)
	}
	if other[0].Dirty() {
		t.Fatal("FillAt dirtied the frame; the test would not isolate the identity check")
	}
	if clean, err := r.SpillOut(h); err != nil || clean {
		t.Fatalf("spill-out after remap: clean=%v err=%v", clean, err)
	}
	if err := r.FaultIn(h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readBlock(t, space, h), want) {
		t.Fatal("eviction restored the pre-remap image")
	}
}

// TestUnregisterDropsRetainedImage: a resident block's retained image goes
// with its registration, so the tier holds at most one image per
// registered block.
func TestUnregisterDropsRetainedImage(t *testing.T) {
	r, _, h := cycled(t, 1, 8)
	if r.Tier().Blocks() != 1 {
		t.Fatal("no retained image to drop")
	}
	r.Unregister(h)
	if r.Tier().Blocks() != 0 || r.Tier().StoredBytes() != 0 {
		t.Fatalf("Unregister left %d images / %d bytes", r.Tier().Blocks(), r.Tier().StoredBytes())
	}
}

// TestAccountingModeRetainsNothing: without bytes there is no dirty bit to
// trust, so unbacked spaces keep the old protocol — every eviction Puts,
// every fault-in Deletes.
func TestAccountingModeRetainsNothing(t *testing.T) {
	space := mem.NewAddrSpace(mem.NewPhys(false))
	r := NewResidency(space, NewCompressed())
	v := space.ReserveBlock(1)
	space.Map(v, space.Phys().Alloc(1))
	h := r.Register(v, 1, 0)
	for cycle := 1; cycle <= 2; cycle++ {
		if clean, err := r.SpillOut(h); err != nil || clean {
			t.Fatalf("cycle %d: clean=%v err=%v", cycle, clean, err)
		}
		if r.Tier().Blocks() != 1 {
			t.Fatal("evicted block has no tier entry")
		}
		if err := r.FaultIn(h); err != nil {
			t.Fatal(err)
		}
		if r.Tier().Blocks() != 0 {
			t.Fatal("unbacked fault-in retained an image")
		}
	}
	if st := r.Stats(); st.CleanEvictions != 0 || st.BytesSpilled != 2*mem.PageSize {
		t.Fatalf("stats = %+v", st)
	}
}

// TestUnregisterKeepsRingIndex drives random Register/Unregister traffic
// and checks the invariant the O(1) removal rests on — every handle's slot
// is its ring position — and that the clock still reaches every survivor.
func TestUnregisterKeepsRingIndex(t *testing.T) {
	r, space, hs := newTestResidency(t, 64, 1)
	live := map[*Handle]bool{}
	for _, h := range hs {
		live[h] = true
	}
	rnd := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		if len(live) > 0 && rnd.Intn(2) == 0 {
			var victim *Handle
			for h := range live { // map order is random enough
				victim = h
				break
			}
			r.Unregister(victim)
			r.Unregister(victim) // idempotent
			delete(live, victim)
			space.Unmap(victim.Base(), 1)
			space.RetireBlock(victim.Base(), 1)
		} else {
			v := space.ReserveBlock(1)
			space.Map(v, space.Phys().Alloc(1))
			live[r.Register(v, 1, 0)] = true
		}
		if r.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(live))
		}
		for i, h := range r.ring {
			if h.slot != i || !live[h] || r.index[h.base] != h {
				t.Fatalf("step %d: ring[%d] = %#x with slot %d, live %v", step, i, h.base, h.slot, live[h])
			}
		}
	}
	seen := map[*Handle]bool{}
	for h := r.NextVictim(); h != nil; h = r.NextVictim() {
		seen[h] = true
		if _, err := r.SpillOut(h); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != len(live) {
		t.Fatalf("clock reached %d of %d blocks", len(seen), len(live))
	}
}

// TestClockSecondChance pins the victim policy: banked lives are spent
// before eviction, so an untouched block goes first and a touched block
// survives extra laps.
func TestClockSecondChance(t *testing.T) {
	r, _, hs := newTestResidency(t, 3, 1)
	// Drain registration credit so every block is evictable.
	for drained := 0; drained < 3; {
		h := r.NextVictim()
		if h == nil {
			t.Fatal("no victim while draining")
		}
		drained++
	}
	// Touch block 1 repeatedly: it must outlive the untouched ones.
	hs[1].Touch()
	hs[1].Touch()
	seen := map[*Handle]int{}
	for i := 0; i < 2; i++ {
		h := r.NextVictim()
		if h == nil {
			t.Fatal("no victim")
		}
		seen[h]++
		if _, err := r.SpillOut(h); err != nil {
			t.Fatal(err)
		}
	}
	if seen[hs[1]] != 0 {
		t.Fatal("touched block evicted before untouched peers")
	}
	// With only the touched block left, its lives drain and it goes too.
	h := r.NextVictim()
	if h != hs[1] {
		t.Fatalf("victim = %v, want the touched block once lives drain", h)
	}
}

// TestClockSkipsNonResident pins that evicted and faulting blocks are
// invisible to the sweep.
func TestClockSkipsNonResident(t *testing.T) {
	r, _, hs := newTestResidency(t, 2, 1)
	if _, err := r.SpillOut(hs[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if h := r.NextVictim(); h == hs[0] {
			t.Fatal("evicted block offered as victim")
		}
	}
	if _, err := r.SpillOut(hs[1]); err != nil {
		t.Fatal(err)
	}
	if h := r.NextVictim(); h != nil {
		t.Fatalf("victim %v with nothing resident", h)
	}
}

func TestRelabelSetsHotByClass(t *testing.T) {
	r, _, hs := newTestResidency(t, 6, 1) // classes 0,1,2,0,1,2
	r.Relabel(func(class int) bool { return class == 1 })
	for i, h := range hs {
		want := i%3 == 1
		if h.Hot() != want {
			t.Fatalf("handle %d hot = %v, want %v", i, h.Hot(), want)
		}
	}
	// Hot blocks are spared the first lap but still evictable eventually.
	for drained := 0; drained < len(hs); {
		if r.NextVictim() != nil {
			drained++
		}
	}
	victims := 0
	for r.NextVictim() != nil {
		h := r.NextVictim()
		if h == nil {
			break
		}
		if _, err := r.SpillOut(h); err != nil {
			t.Fatal(err)
		}
		victims++
	}
	if r.Stats().EvictedBlocks == 0 {
		t.Fatal("hot labels made everything unevictable")
	}
}

func TestUnregisterDropsSpill(t *testing.T) {
	r, _, hs := newTestResidency(t, 2, 1)
	if _, err := r.SpillOut(hs[0]); err != nil {
		t.Fatal(err)
	}
	if r.Tier().Blocks() != 1 {
		t.Fatal("spill image missing")
	}
	r.Unregister(hs[0])
	if r.Tier().Blocks() != 0 {
		t.Fatal("Unregister leaked the spill image")
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1", r.Len())
	}
	if r.Stats().EvictedBlocks != 0 {
		t.Fatal("evicted gauge not decremented on unregister")
	}
	if r.Lookup(hs[0].Base()) != nil {
		t.Fatal("lookup finds unregistered block")
	}
	if r.Lookup(hs[1].Base()) != hs[1] {
		t.Fatal("lookup lost surviving block")
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	r, _, hs := newTestResidency(t, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Register(hs[0].Base(), 1, 0)
}
