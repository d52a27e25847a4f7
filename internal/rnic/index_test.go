package rnic

import (
	"errors"
	"math/rand"
	"testing"

	"corm/internal/mem"
	"corm/internal/timing"
)

// regionScan is the lookup the page index replaced — a walk over every
// registered region — kept here as the oracle the index must agree with.
func regionScan(n *NIC, vaddr uint64) *Region {
	for _, r := range n.regions {
		if r.Contains(vaddr, 1) {
			return r
		}
	}
	return nil
}

// TestRegionIndexMatchesScan registers 10 000 one-page regions (ODP and
// pinned mixed), then runs a random sequence of Register, Deregister,
// Invalidate and AdviseMR against the NIC and against a model driven by
// the brute-force scan: after every step the index and the scan must name
// the same region, and the MTT must hold exactly the entries the model says.
func TestRegionIndexMatchesScan(t *testing.T) {
	const pages = 10000
	p, s, n := newHost(t, timing.ConnectX5())
	base := s.ReserveBlock(pages)
	s.Map(base, p.Alloc(pages))
	addr := func(i int) uint64 { return base + uint64(i)*mem.PageSize }
	rnd := rand.New(rand.NewSource(17))

	regs := make([]*Region, pages) // the region registered at page i, if any
	mtt := make([]bool, pages)     // model: page i has an MTT entry
	register := func(i int) {
		r, err := n.Register(addr(i), mem.PageSize, rnd.Intn(2) == 0)
		if err != nil {
			t.Fatal(err)
		}
		regs[i], mtt[i] = r, true
	}
	for i := 0; i < pages; i++ {
		register(i)
	}

	check := func(step, i int) {
		t.Helper()
		n.mu.Lock()
		defer n.mu.Unlock()
		got, want := n.regionForLocked(addr(i)+uint64(rnd.Intn(mem.PageSize))), regionScan(n, addr(i))
		if got != want || want != regs[i] {
			t.Fatalf("step %d page %d: index %p, scan %p, model %p", step, i, got, want, regs[i])
		}
		if _, ok := n.mtt[addr(i)>>mem.PageShift]; ok != mtt[i] {
			t.Fatalf("step %d page %d: MTT entry present = %v, model says %v", step, i, ok, mtt[i])
		}
	}
	for step := 0; step < 2000; step++ {
		i := rnd.Intn(pages)
		switch op := rnd.Intn(4); {
		case op == 0 && regs[i] == nil:
			register(i)
		case op == 0:
			n.Deregister(regs[i])
			regs[i], mtt[i] = nil, false
		case op == 1:
			// A span of up to four pages: only ODP-registered ones lose
			// their entries.
			span := 1 + rnd.Intn(4)
			if i+span > pages {
				span = pages - i
			}
			n.Invalidate(addr(i), span*mem.PageSize)
			for k := i; k < i+span; k++ {
				if regs[k] != nil && regs[k].ODP {
					mtt[k] = false
				}
				check(step, k)
			}
		default:
			_, err := n.AdviseMR(addr(i), mem.PageSize)
			switch {
			case regs[i] == nil:
				if !errors.Is(err, ErrOutOfBounds) {
					t.Fatalf("step %d: AdviseMR outside any region: %v", step, err)
				}
			case !regs[i].ODP:
				if !errors.Is(err, ErrNoODP) {
					t.Fatalf("step %d: AdviseMR on a pinned region: %v", step, err)
				}
			default:
				if err != nil {
					t.Fatalf("step %d: AdviseMR: %v", step, err)
				}
				mtt[i] = true
			}
		}
		check(step, i)
	}
	// Tear everything down: the index must end empty.
	for _, r := range regs {
		if r != nil {
			n.Deregister(r)
		}
	}
	if len(n.pages) != 0 || len(n.regions) != 0 {
		t.Fatalf("index holds %d pages, table %d regions after full teardown", len(n.pages), len(n.regions))
	}
}

// TestInvalidateSparesPinnedRegions: Invalidate models the MMU notifier,
// which only ODP regions subscribe to. A span that runs from an ODP region
// into a pinned neighbour drops the ODP pages' entries and leaves the
// pinned region's (by then possibly stale) snapshot alone.
func TestInvalidateSparesPinnedRegions(t *testing.T) {
	p, s, n := newHost(t, timing.ConnectX5())
	v := mapBlock(p, s, 4, 0x11)
	odp, err := n.Register(v, 2*mem.PageSize, true)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := n.Register(v+2*mem.PageSize, 2*mem.PageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	n.Invalidate(v+mem.PageSize, 2*mem.PageSize) // last ODP page + first pinned page

	vp := v >> mem.PageShift
	for i, want := range []bool{true, false, true, true} {
		if _, ok := n.mtt[vp+uint64(i)]; ok != want {
			t.Fatalf("page %d: MTT entry present = %v, want %v", i, ok, want)
		}
	}
	// The pinned region still serves reads from its snapshot, without a
	// fault; the invalidated ODP page faults and recovers.
	qp := n.Connect()
	buf := make([]byte, 8)
	if c, err := qp.Read(pinned.RKey, v+2*mem.PageSize, buf); err != nil || c.ODPFault || buf[0] != 0x11 {
		t.Fatalf("pinned read after neighbouring invalidate: %+v %v", c, err)
	}
	if c, err := qp.Read(odp.RKey, v+mem.PageSize, buf); err != nil || !c.ODPFault {
		t.Fatalf("invalidated ODP page did not fault: %+v %v", c, err)
	}
}

// TestRegionLookupAfterDeregister: a deregistered region is gone from the
// index, a multi-page one from every page it covered, and an overlapping
// registration of the same memory (legal, as with ibv_reg_mr) stays found.
func TestRegionLookupAfterDeregister(t *testing.T) {
	p, s, n := newHost(t, timing.ConnectX5())
	v := mapBlock(p, s, 3, 0)
	lookup := func(vaddr uint64) *Region {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.regionForLocked(vaddr)
	}
	whole, _ := n.Register(v, 3*mem.PageSize, true)
	middle, _ := n.Register(v+mem.PageSize, mem.PageSize, false)
	if r := lookup(v + mem.PageSize); r != whole && r != middle {
		t.Fatalf("lookup in the overlap = %p", r)
	}
	n.Deregister(middle)
	for i := uint64(0); i < 3; i++ {
		if r := lookup(v + i*mem.PageSize + 5); r != whole {
			t.Fatalf("page %d after deregistering the overlapping region: %p, want the outer one", i, r)
		}
	}
	n.Deregister(whole)
	for i := uint64(0); i < 3; i++ {
		if r := lookup(v + i*mem.PageSize); r != nil {
			t.Fatalf("page %d still resolves to %p after Deregister", i, r)
		}
	}
	if _, err := n.AdviseMR(v, mem.PageSize); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("AdviseMR after Deregister: %v, want ErrOutOfBounds", err)
	}
	if len(n.pages) != 0 {
		t.Fatalf("index kept %d pages", len(n.pages))
	}
}
