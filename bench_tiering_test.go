// Elastic-memory benchmarks: the cost of serving reads from an
// oversubscribed store (resident hits mixed with tier fault-ins) and the
// raw fault-in path itself. Full oversubscription curves with hot-set
// latency bars come from `go run ./cmd/corm-bench tiering`.
package corm

import (
	"testing"

	"corm/internal/core"
	"corm/internal/mem"
	"corm/internal/rnic"
	"corm/internal/tier"
	"corm/internal/timing"
)

// benchTieredStore preloads objs objects of the given size into a store
// whose frame budget is budgetFrac of the resulting working set, spilling
// the overflow into the compressed tier.
func benchTieredStore(b *testing.B, objs, size int, budgetFrac float64) (*core.Store, []core.Addr) {
	b.Helper()
	working := int64(objs * size)
	s := benchStore(b, func(c *Config) {
		c.MemBudgetBytes = int64(budgetFrac * float64(working))
		c.TierSpec = "compressed"
	})
	b.Cleanup(func() { s.Close() })
	addrs := make([]core.Addr, objs)
	payload := make([]byte, size)
	for i := range addrs {
		r, err := s.AllocOn(i%s.Workers(), size)
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = r.Addr
		if err := s.Write(&addrs[i], payload); err != nil {
			b.Fatal(err)
		}
	}
	return s, addrs
}

// BenchmarkTieredRead reads round-robin across a working set twice the
// frame budget: roughly half the accesses hit resident blocks, the rest
// take the spill-out/fault-in cycle. The number to watch against
// BenchmarkFig09RPCRead is the oversubscription tax on the average read.
func BenchmarkTieredRead(b *testing.B) {
	const objs, size = 2048, 512
	s, addrs := benchTieredStore(b, objs, size, 0.5)
	buf := make([]byte, s.ClassSize(int(addrs[0].Class())))
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(&addrs[i%objs], buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Residency().Stats()
	if st.FaultIns == 0 && b.N > objs {
		b.Fatal("no fault-ins: benchmark is not oversubscribed")
	}
	b.ReportMetric(float64(st.FaultIns)/float64(b.N), "faults/op")
}

// BenchmarkFaultIn isolates the fault-in path: every timed read lands on
// an evicted block (one object per block; the whole set is force-evicted
// outside the timed region each sweep), so each op pays frame allocation,
// tier decompression, and the refill copy.
func BenchmarkFaultIn(b *testing.B) {
	const objs, size = 64, 2048                    // one object per 4 KiB block
	s, addrs := benchTieredStore(b, objs, size, 4) // budget ample: only explicit eviction
	buf := make([]byte, s.ClassSize(int(addrs[0].Class())))
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%objs == 0 {
			b.StopTimer()
			for s.EvictBlocks(objs) > 0 {
			}
			b.StartTimer()
		}
		if _, err := s.Read(&addrs[i%objs], buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Residency().Stats(); st.FaultIns < int64(b.N/2) {
		b.Fatalf("only %d fault-ins across %d reads: eviction sweep not sticking", st.FaultIns, b.N)
	}
}

// TestTierCycleAllocBudget pins what one write-back eviction plus fault-in
// of a one-page block allocates on the compressed tier: the stored blob,
// the fresh frame list and the page-table entry, with a spare — at most 4.
// The staging buffer, both flate halves and the copy scratch are pooled
// (this cycle cost about 7 while Put kept a grown bytes.Buffer per image).
func TestTierCycleAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold for production builds")
	}
	space := mem.NewAddrSpace(mem.NewPhys(true))
	res := tier.NewResidency(space, tier.NewCompressed())
	base := space.ReserveBlock(1)
	space.Map(base, space.Phys().Alloc(1))
	h := res.Register(base, 1, 0)
	page := make([]byte, mem.PageSize)
	cycle := func() {
		page[0]++
		if err := space.WriteAt(base, page); err != nil { // dirty: the eviction writes back
			t.Fatal(err)
		}
		if clean, err := res.SpillOut(h); err != nil || clean {
			t.Fatalf("SpillOut: clean=%v err=%v", clean, err)
		}
		if err := res.FaultIn(h); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	t.Logf("evict + fault-in of a one-page dirty block: %.1f allocs", allocs)
	if allocs > 4 {
		t.Fatalf("evict + fault-in of a one-page dirty block costs %.1f allocs, budget 4", allocs)
	}
}

// BenchmarkNICInvalidate times what one evict + fault-in cycle of a hot
// block asks of the NIC — invalidate the block's MTT entries, then prefetch
// them back (ibv_advise_mr) — with 8 k one-page regions registered, about
// what an oversubscribed store carries. The cost must not depend on that
// count: both lookups go through the NIC's page index, not a walk over its
// regions.
func BenchmarkNICInvalidate(b *testing.B) {
	const regions = 8192
	space := mem.NewAddrSpace(mem.NewPhys(false))
	nic := rnic.New(space, timing.ConnectX5())
	bases := make([]uint64, regions)
	for i := range bases {
		bases[i] = space.ReserveBlock(1)
		space.Map(bases[i], space.Phys().Alloc(1))
		if _, err := nic.Register(bases[i], mem.PageSize, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := bases[i%regions]
		nic.Invalidate(base, mem.PageSize)
		if _, err := nic.AdviseMR(base, mem.PageSize); err != nil {
			b.Fatal(err)
		}
	}
}
