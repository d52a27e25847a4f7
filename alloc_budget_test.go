// Allocation budgets: hard regression guards on hot-path allocation
// counts. They hold for production builds only, so each test skips under
// -short and under the race detector.
package corm

import (
	"bytes"
	"testing"
	"time"

	"corm/internal/client"
	"corm/internal/cluster"
	"corm/internal/core"
	"corm/internal/mem"
	"corm/internal/tier"
	"corm/internal/transport"
)

// wireVariants runs a sub-benchmark per transport selection: shm (the
// auto-selected same-process fast path) and tcp (loopback socket).
var wireVariants = []struct {
	name       string
	disableSHM bool
}{
	{"shm", false},
	{"tcp", true},
}

// benchWireClient starts a node and a full client context with count
// written 64-byte objects, over the selected wire.
func benchWireClient(b *testing.B, disableSHM bool, count int) (*Client, []*core.Addr) {
	b.Helper()
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	cli, err := client.CreateCtxOptions(addr, transport.Options{DisableSharedMemory: disableSHM})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	payload := make([]byte, 64)
	addrs := make([]*core.Addr, count)
	for i := range addrs {
		a, err := cli.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := cli.Write(&a, payload); err != nil {
			b.Fatal(err)
		}
		addrs[i] = &a
	}
	return cli, addrs
}

// TestDirectReadAllocBudget pins the zero-copy DMA claim: a client-level
// DirectRead (lease checkout, in-ring landing, in-place extract, release)
// stays within 4 allocations per op on both wires. The pre-writev path
// spent 8.
func TestDirectReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold for production builds")
	}
	for _, v := range wireVariants {
		t.Run(v.name, func(t *testing.T) {
			cli, addrs := benchWireClientT(t, v.disableSHM, 1)
			buf := make([]byte, 64)
			// Warm the connection, rings, and pools out of the measured region.
			for i := 0; i < 64; i++ {
				if _, err := cli.DirectRead(addrs[0], buf); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := cli.DirectRead(addrs[0], buf); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 4 {
				t.Fatalf("client DirectRead costs %.1f allocs/op, budget 4", allocs)
			}
		})
	}
}

// TestBatchReadAllocBudget pins the batched path: at batch=128 the whole
// call amortizes to zero allocations per sub-read (strictly fewer than one
// alloc per sub-op, i.e. the per-call overhead never scales with width).
func TestBatchReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold for production builds")
	}
	const batch = 128
	for _, v := range wireVariants {
		t.Run(v.name, func(t *testing.T) {
			cli, addrs := benchWireClientT(t, v.disableSHM, batch)
			bufs := make([][]byte, batch)
			for i := range bufs {
				bufs[i] = make([]byte, 64)
			}
			check := func() {
				results, err := cli.MultiRead(addrs, bufs)
				if err != nil {
					t.Fatal(err)
				}
				for k := range results {
					if results[k].Err != nil {
						t.Fatal(results[k].Err)
					}
				}
			}
			for i := 0; i < 32; i++ {
				check()
			}
			perCall := testing.AllocsPerRun(100, check)
			if perSub := perCall / batch; perSub >= 1 {
				t.Fatalf("MultiRead costs %.2f allocs/call = %.2f per sub-read, budget <1 (amortized 0)", perCall, perSub)
			}
		})
	}
}

// TestLocalReadAllocBudget pins the in-process read path: a ConnectLocal
// client's Read has the server stage the slot inside a pooled frame buffer
// and decodes the response in place, so it allocates nothing. (Before the
// local backend had the lease facet every such Read allocated its payload.)
func TestLocalReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold for production builds")
	}
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := srv.ConnectLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	want := make([]byte, 1024)
	for i := range want {
		want[i] = byte(i)
	}
	addr, err := cli.Alloc(len(want))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Write(&addr, want); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(want))
	read := func() {
		if n, err := cli.Read(&addr, buf); err != nil || n != len(want) {
			t.Fatalf("Read = %d, %v", n, err)
		}
	}
	for i := 0; i < 64; i++ {
		read()
	}
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("in-process Read costs %.1f allocs/op, budget 0", allocs)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("in-process Read returned the wrong bytes")
	}
}

// TestStoreReadAllocBudget pins the store's own Read, the path direct
// store users (drills, the soak's canary check) take: it stages the slot in
// a pooled buffer and allocates nothing.
func TestStoreReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold for production builds")
	}
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	store := srv.Store()
	res, err := store.AllocOn(0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	addr := res.Addr
	if err := store.Write(&addr, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, store.ClassSize(int(addr.Class())))
	read := func() {
		if _, err := store.Read(&addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		read()
	}
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("Store.Read costs %.1f allocs/op, budget 0", allocs)
	}
}

// benchWireClientT is benchWireClient for plain tests.
func benchWireClientT(t *testing.T, disableSHM bool, count int) (*Client, []*core.Addr) {
	t.Helper()
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := client.CreateCtxOptions(addr, transport.Options{DisableSharedMemory: disableSHM})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	payload := make([]byte, 64)
	addrs := make([]*core.Addr, count)
	for i := range addrs {
		a, err := cli.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Write(&a, payload); err != nil {
			t.Fatal(err)
		}
		addrs[i] = &a
	}
	return cli, addrs
}

// TestAsyncBatchAllocBudget pins the async facade: 64 ReadAsync or 64
// FetchAddAsync calls, flushed as one batch and waited on, cost at most 205
// allocations per batch on either wire, client and in-process server
// together. Every future costs two (the future and its channel); the rest
// is the flush. A batcher that built its flush function on every call
// would show here first.
func TestAsyncBatchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold for production builds")
	}
	const batch, budget = 64, 205
	for _, v := range wireVariants {
		t.Run(v.name, func(t *testing.T) {
			cli, addrs := benchWireClientT(t, v.disableSHM, batch)
			// The batch dispatches when it fills; the window never fires
			// mid-burst, so every measured batch has the same shape.
			cli.AsyncMaxBatch = batch
			cli.AsyncWindow = time.Minute
			bufs := make([][]byte, batch)
			for i := range bufs {
				bufs[i] = make([]byte, 64)
			}
			futs := make([]*Future, batch)
			afuts := make([]*AtomicFuture, batch)
			wait := func() {
				cli.Flush()
				for _, f := range futs {
					if _, err := f.Wait(); err != nil {
						t.Fatal(err)
					}
				}
			}
			kinds := []struct {
				name string
				run  func()
			}{
				{"ReadAsync", func() {
					for i := range addrs {
						futs[i] = cli.ReadAsync(addrs[i], bufs[i])
					}
					wait()
				}},
				{"FetchAddAsync", func() {
					for i := range addrs {
						afuts[i] = cli.FetchAddAsync(addrs[i], 0, 1)
					}
					cli.Flush()
					for _, f := range afuts {
						if _, err := f.Wait(); err != nil {
							t.Fatal(err)
						}
					}
				}},
			}
			for _, k := range kinds {
				for i := 0; i < 8; i++ {
					k.run()
				}
				allocs := testing.AllocsPerRun(50, k.run)
				t.Logf("%s: %.0f allocs per %d-op batch", k.name, allocs, batch)
				if allocs > budget {
					t.Errorf("%s costs %.0f allocs per %d-op batch, budget %d", k.name, allocs, batch, budget)
				}
			}
		})
	}
}

// TestFetchAddAllocBudget pins the pushdown hot path: one blocking
// FetchAdd round trip costs at most 1 allocation on either wire.
func TestFetchAddAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold for production builds")
	}
	for _, v := range wireVariants {
		t.Run(v.name, func(t *testing.T) {
			cli, _ := benchWireClientT(t, v.disableSHM, 0)
			ctr, err := cli.Alloc(8)
			if err != nil {
				t.Fatal(err)
			}
			if err := cli.Write(&ctr, make([]byte, 8)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				if _, err := cli.FetchAdd(&ctr, 0, 1); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := cli.FetchAdd(&ctr, 0, 1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Fatalf("FetchAdd costs %.1f allocs/op, budget 1", allocs)
			}
		})
	}
}

// TestWriteAllocBudget pins the lease-converted Write path (the response
// is now decoded out of the receive lease, not a copied payload).
func TestWriteAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold for production builds")
	}
	for _, v := range wireVariants {
		t.Run(v.name, func(t *testing.T) {
			cli, addrs := benchWireClientT(t, v.disableSHM, 1)
			payload := make([]byte, 64)
			for i := 0; i < 64; i++ {
				if err := cli.Write(addrs[0], payload); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := cli.Write(addrs[0], payload); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Fatalf("Write costs %.1f allocs/op, budget 1", allocs)
			}
		})
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

// benchReplicatedKV spins a 3-node loopback cluster and a replicated KV.
func benchReplicatedKV(tb testing.TB, k, w int) (*cluster.LocalCluster, *KV) {
	tb.Helper()
	c, err := cluster.SpinLocal(3, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: k, WriteConcern: w})
	return c, kv
}

// TestReplicatedPutAllocBudget pins the replicated overwrite: once spares
// are stocked, a k=3 W=3 Put of a same-size value costs at most 21
// allocations, the count of the goroutine-per-replica fan-out it replaced
// (measured on the same path). Posting the writes must not cost more: the
// fan-out's completion queue and deadline timer are pooled.
func TestReplicatedPutAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold for production builds")
	}
	_, kv := benchReplicatedKV(t, 3, 3)
	value := make([]byte, 128)
	for i := 0; i < 64; i++ {
		if err := kv.Put("budget", value); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := kv.Put("budget", value); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 21 {
		t.Fatalf("replicated Put costs %.1f allocs/op, budget 21", allocs)
	}
	t.Logf("replicated Put: %.1f allocs/op", allocs)
}
