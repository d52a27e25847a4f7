package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// The dirty rule (tier.Residency.SpillOut): a block evicted again without
// having been written since its last fault-in skips the write-back, because
// the tier still holds its image. The rule is only sound if every mutation
// of block memory sets the frame dirty bit. These tests walk each mutation
// path through evict, fault in, mutate, evict, fault in — and demand the
// mutation back. A path that bypassed the dirty bit would take the clean
// path on the second eviction and come back with the pre-mutation image.

const dirtySize = 256 // class 256: 12 slots per 4 KiB block, 44 guard bytes each

func dirtyStore(t *testing.T) *Store {
	t.Helper()
	s := tieredStore(t, 1<<20, func(c *Config) { c.Canaries = true })
	t.Cleanup(func() { s.Close() })
	return s
}

func evictAll(s *Store) {
	for s.EvictBlocks(16) > 0 {
	}
}

// allocWritten allocates one object and writes a seeded payload.
func allocWritten(t *testing.T, s *Store, seed byte) Addr {
	t.Helper()
	r, err := s.AllocOn(0, dirtySize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(&r.Addr, fill(dirtySize, seed)); err != nil {
		t.Fatal(err)
	}
	return r.Addr
}

func mustRead(t *testing.T, s *Store, a *Addr) []byte {
	t.Helper()
	buf := make([]byte, dirtySize)
	if _, err := s.Read(a, buf); err != nil {
		t.Fatalf("read %#x: %v", a.VAddr(), err)
	}
	return buf
}

// cleanResident evicts everything and faults a's block back in with a read:
// the block ends resident, unwritten, with its image retained in the tier.
func cleanResident(t *testing.T, s *Store, a *Addr, seed byte) {
	t.Helper()
	evictAll(s)
	if s.Residency().Stats().EvictedBlocks == 0 {
		t.Fatal("nothing evicted")
	}
	if got := mustRead(t, s, a); !bytes.Equal(got, fill(dirtySize, seed)) {
		t.Fatal("payload changed across the first evict/fault cycle")
	}
}

// TestDirtyRuleEveryMutationPath: each mutation of a faulted-in block must
// force a write-back at the block's next eviction and survive it.
func TestDirtyRuleEveryMutationPath(t *testing.T) {
	cases := []struct {
		name string
		// mutate changes block memory through one path and returns the
		// check to run after the next evict/fault cycle.
		mutate func(t *testing.T, s *Store, a, b *Addr) (check func(t *testing.T))
	}{
		{"Write", func(t *testing.T, s *Store, a, _ *Addr) func(*testing.T) {
			if err := s.Write(a, fill(dirtySize, 0xA1)); err != nil {
				t.Fatal(err)
			}
			return func(t *testing.T) {
				if !bytes.Equal(mustRead(t, s, a), fill(dirtySize, 0xA1)) {
					t.Fatal("Write lost across eviction")
				}
			}
		}},
		{"Free", func(t *testing.T, s *Store, a, b *Addr) func(*testing.T) {
			stale := *b
			if err := s.Free(b); err != nil {
				t.Fatal(err)
			}
			return func(t *testing.T) {
				// The cleared alloc bit lives in block memory; a one-sided
				// reader must still see the slot as free.
				c := s.ConnectClient()
				defer c.Close()
				if _, err := c.DirectRead(stale, make([]byte, dirtySize)); !errors.Is(err, ErrWrongObject) {
					t.Fatalf("one-sided read of a freed slot after eviction: %v, want ErrWrongObject", err)
				}
				if !bytes.Equal(mustRead(t, s, a), fill(dirtySize, 1)) {
					t.Fatal("neighbour of a freed slot corrupted")
				}
			}
		}},
		{"AllocOn", func(t *testing.T, s *Store, a, _ *Addr) func(*testing.T) {
			r, err := s.AllocOn(0, dirtySize)
			if err != nil {
				t.Fatal(err)
			}
			if s.blockBase(r.Addr.VAddr()) != s.blockBase(a.VAddr()) {
				t.Fatal("allocation did not land in the faulted-in block")
			}
			return func(t *testing.T) {
				// The slot header AllocOn wrote (alloc bit, ID, home) is
				// what a one-sided read validates.
				c := s.ConnectClient()
				defer c.Close()
				if _, err := c.DirectRead(r.Addr, make([]byte, dirtySize)); err != nil {
					t.Fatalf("slot header written by AllocOn lost across eviction: %v", err)
				}
			}
		}},
		{"CAS", func(t *testing.T, s *Store, a, _ *Addr) func(*testing.T) {
			want := fill(dirtySize, 1)
			if err := s.CAS(a, 8, want[8:16], []byte("swapped!")); err != nil {
				t.Fatal(err)
			}
			copy(want[8:], "swapped!")
			return func(t *testing.T) {
				if !bytes.Equal(mustRead(t, s, a), want) {
					t.Fatal("CAS lost across eviction")
				}
			}
		}},
		{"FetchAdd", func(t *testing.T, s *Store, a, _ *Addr) func(*testing.T) {
			prev, err := s.FetchAdd(a, 0, 5)
			if err != nil {
				t.Fatal(err)
			}
			return func(t *testing.T) {
				if got := binary.LittleEndian.Uint64(mustRead(t, s, a)); got != prev+5 {
					t.Fatalf("FetchAdd lost across eviction: %d, want %d", got, prev+5)
				}
			}
		}},
		{"CondWrite", func(t *testing.T, s *Store, a, _ *Addr) func(*testing.T) {
			// a has been written once, so its version is 1.
			if _, err := s.CondWrite(a, 1, false, fill(dirtySize, 0xC3)); err != nil {
				t.Fatal(err)
			}
			return func(t *testing.T) {
				if !bytes.Equal(mustRead(t, s, a), fill(dirtySize, 0xC3)) {
					t.Fatal("CondWrite lost across eviction")
				}
			}
		}},
		{"CorruptSlotTail", func(t *testing.T, s *Store, a, _ *Addr) func(*testing.T) {
			if err := s.CorruptSlotTail(a); err != nil {
				t.Fatal(err)
			}
			return func(t *testing.T) {
				if _, err := s.Read(a, make([]byte, dirtySize)); !errors.Is(err, ErrCorruption) {
					t.Fatalf("guard-byte corruption healed by eviction: read = %v", err)
				}
			}
		}},
		{"QPWrite", func(t *testing.T, s *Store, a, _ *Addr) func(*testing.T) {
			// A one-sided write of payload bytes 0..8 (slot offset 16: the
			// first cacheline carries payload right after the header).
			c := s.ConnectClient()
			defer c.Close()
			if _, err := c.QP().Write(a.RKey(), a.VAddr()+headerBytes, []byte("onesided")); err != nil {
				t.Fatal(err)
			}
			want := fill(dirtySize, 1)
			copy(want, "onesided")
			return func(t *testing.T) {
				if !bytes.Equal(mustRead(t, s, a), want) {
					t.Fatal("one-sided write lost across eviction")
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := dirtyStore(t)
			a, b := allocWritten(t, s, 1), allocWritten(t, s, 2)
			cleanResident(t, s, &a, 1)
			check := tc.mutate(t, s, &a, &b)

			before := s.Residency().Stats()
			evictAll(s)
			after := s.Residency().Stats()
			if after.SpillOuts != before.SpillOuts+1 {
				t.Fatalf("evicted %d blocks, want the one block", after.SpillOuts-before.SpillOuts)
			}
			if after.CleanEvictions != before.CleanEvictions || after.BytesSpilled == before.BytesSpilled {
				t.Fatalf("mutated block took the clean path: %+v -> %+v", before, after)
			}
			check(t)
		})
	}
}

// TestDirtyRuleCompactionIntoFaultedInBlock: a merge copies objects into a
// destination that was faulted in earlier and has a retained image; the
// copy must dirty it, or the moved objects vanish at its next eviction.
func TestDirtyRuleCompactionIntoFaultedInBlock(t *testing.T) {
	s := dirtyStore(t)
	per := s.Allocator().Config().SlotsPerBlock(dirtySize)
	class := s.Allocator().Config().ClassFor(dirtySize)
	var all []Addr
	for i := 0; i < 2*per; i++ {
		all = append(all, allocWritten(t, s, byte(i)))
	}
	// Keep three objects in the first block (the fuller one: the planner's
	// destination) and one in the second (the source).
	var kept []int
	for i := range all {
		if i < 3 || i == per {
			kept = append(kept, i)
		} else if err := s.Free(&all[i]); err != nil {
			t.Fatal(err)
		}
	}
	dst, moved := &all[0], &all[per]

	evictAll(s)
	mustRead(t, s, dst) // the destination is resident, clean, image retained
	if r := s.CompactClass(CompactOptions{Class: class, Leader: 0}); r.Merges != 1 {
		t.Fatalf("merges = %d, want 1: %+v", r.Merges, r)
	}
	// The destination stays pinned while the source's address aliases it;
	// rebasing the moved object retires the alias.
	mustRead(t, s, moved)
	rebased, err := s.ReleasePtr(moved)
	if err != nil {
		t.Fatal(err)
	}
	*moved = rebased
	if s.blockBase(moved.VAddr()) != s.blockBase(dst.VAddr()) {
		t.Fatal("the merge did not go into the faulted-in block")
	}

	before := s.Residency().Stats()
	evictAll(s)
	after := s.Residency().Stats()
	if after.SpillOuts == before.SpillOuts {
		t.Fatal("merge destination not evictable after the alias retired")
	}
	if after.CleanEvictions != before.CleanEvictions {
		t.Fatal("merge destination took the clean path")
	}
	for _, i := range kept {
		if !bytes.Equal(mustRead(t, s, &all[i]), fill(dirtySize, byte(i))) {
			t.Fatalf("object %d lost across the destination's eviction", i)
		}
	}
}

// TestCleanEvictionReadOnlyCycle: blocks that are only read between two
// evictions take the clean path — nothing is written to the tier — and
// still come back byte-identical, through both the RPC and one-sided paths.
func TestCleanEvictionReadOnlyCycle(t *testing.T) {
	s := dirtyStore(t)
	addrs := make([]Addr, 40) // four blocks
	for i := range addrs {
		addrs[i] = allocWritten(t, s, byte(i))
	}
	c := s.ConnectClient()
	defer c.Close()
	readAll := func() {
		t.Helper()
		buf := make([]byte, dirtySize)
		for i := range addrs {
			if !bytes.Equal(mustRead(t, s, &addrs[i]), fill(dirtySize, byte(i))) {
				t.Fatalf("object %d corrupted", i)
			}
			if _, err := c.DirectRead(addrs[i], buf); err != nil || !bytes.Equal(buf, fill(dirtySize, byte(i))) {
				t.Fatalf("object %d one-sided: %v", i, err)
			}
		}
	}
	evictAll(s)
	readAll()
	first := s.Residency().Stats()
	if first.CleanEvictions != 0 {
		t.Fatalf("first eviction of freshly written blocks was clean: %+v", first)
	}
	cleanBefore := cmCleanEvictions.Value()

	evictAll(s)
	second := s.Residency().Stats()
	evicted := second.SpillOuts - first.SpillOuts
	if evicted == 0 || second.CleanEvictions != evicted {
		t.Fatalf("read-only blocks: %d evictions, %d clean", evicted, second.CleanEvictions)
	}
	if second.BytesSpilled != first.BytesSpilled {
		t.Fatalf("clean evictions wrote %d bytes", second.BytesSpilled-first.BytesSpilled)
	}
	if got := cmCleanEvictions.Value() - cleanBefore; got != evicted {
		t.Fatalf("corm_tier_clean_evictions_total moved by %d, want %d", got, evicted)
	}
	readAll()

	// The tier holds one image per registered block, resident or not, and
	// reports what it actually holds.
	tr := s.Residency().Tier()
	if tr.Blocks() != s.Residency().Len() {
		t.Fatalf("tier holds %d images for %d registered blocks", tr.Blocks(), s.Residency().Len())
	}
	if tr.StoredBytes() <= 0 {
		t.Fatal("StoredBytes does not count retained images")
	}
}

// TestCleanEvictionNeedsTheTierImage: if the retained image of a resident
// clean block disappears from the tier, the next eviction must write the
// block back rather than trust the marker and lose it.
func TestCleanEvictionNeedsTheTierImage(t *testing.T) {
	s := dirtyStore(t)
	a := allocWritten(t, s, 9)
	cleanResident(t, s, &a, 9)
	s.Residency().Tier().Delete(s.blockBase(a.VAddr())) // sabotage

	before := s.Residency().Stats()
	evictAll(s)
	after := s.Residency().Stats()
	if after.CleanEvictions != before.CleanEvictions || after.BytesSpilled == before.BytesSpilled {
		t.Fatalf("eviction trusted a deleted image: %+v -> %+v", before, after)
	}
	if !bytes.Equal(mustRead(t, s, &a), fill(dirtySize, 9)) {
		t.Fatal("block lost")
	}
}

// TestReleasedBlockDropsRetainedImage: a block released while resident
// takes its retained image with it, so the tier never holds more than one
// image per registered block.
func TestReleasedBlockDropsRetainedImage(t *testing.T) {
	s := dirtyStore(t)
	per := s.Allocator().Config().SlotsPerBlock(dirtySize)
	// Fill one block and start a second, so the first is no longer the
	// allocator's current block and is released when it empties.
	addrs := make([]Addr, per+1)
	for i := range addrs {
		addrs[i] = allocWritten(t, s, byte(i))
	}
	cleanResident(t, s, &addrs[0], 0)
	first := s.blockBase(addrs[0].VAddr())
	if !s.Residency().Tier().Has(first) {
		t.Fatal("fault-in did not retain the image")
	}
	for i := 0; i < per; i++ {
		if err := s.Free(&addrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if s.Residency().Lookup(first) != nil {
		t.Fatal("emptied block still registered")
	}
	if s.Residency().Tier().Has(first) {
		t.Fatal("released block left its image in the tier")
	}
}
