package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"corm/internal/core"
	"corm/internal/fault"
	"corm/internal/rpc"
)

func u64le(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// counterObj allocates a zeroed object of the given size.
func counterObj(t *testing.T, ctx *Ctx, size int) core.Addr {
	t.Helper()
	a, err := ctx.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Write(&a, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFetchAddAndCAS(t *testing.T) {
	eachBackend(t, func(t *testing.T, _ *core.Store, ctx *Ctx) {
		a := counterObj(t, ctx, 16)

		old, err := ctx.FetchAdd(&a, 0, 5)
		if err != nil || old != 0 {
			t.Fatalf("first add: %d %v", old, err)
		}
		old, err = ctx.FetchAdd(&a, 0, -2)
		if err != nil || old != 5 {
			t.Fatalf("second add: %d %v", old, err)
		}

		// CAS success, then conflict against the changed bytes.
		if err := ctx.CAS(&a, 0, u64le(3), u64le(99)); err != nil {
			t.Fatalf("cas: %v", err)
		}
		err = ctx.CAS(&a, 0, u64le(3), u64le(1))
		if !errors.Is(err, core.ErrConflict) {
			t.Fatalf("cas conflict: %v", err)
		}
		buf := make([]byte, 8)
		if _, err := ctx.Read(&a, buf); err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint64(buf); v != 99 {
			t.Fatalf("counter = %d, want 99", v)
		}

		// Out-of-range offsets are rejected, never silently clamped.
		if _, err := ctx.FetchAdd(&a, 1<<16, 1); err == nil {
			t.Fatal("oob fetchadd succeeded")
		}
	})
}

func TestPutIfAndPutIfAbsent(t *testing.T) {
	eachBackend(t, func(t *testing.T, _ *core.Store, ctx *Ctx) {
		a, err := ctx.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}

		// First-writer-wins initialization.
		ver, err := ctx.PutIfAbsent(&a, []byte("first"))
		if err != nil {
			t.Fatalf("if-absent: %v", err)
		}
		if _, err := ctx.PutIfAbsent(&a, []byte("second")); !errors.Is(err, core.ErrConflict) {
			t.Fatalf("second if-absent: %v", err)
		}

		// Optimistic write chain: each PutIf seeds the next version.
		ver2, err := ctx.PutIf(&a, ver, []byte("update-1"))
		if err != nil || ver2 != ver+1 {
			t.Fatalf("putif: ver=%d err=%v", ver2, err)
		}
		// Stale version: conflict, and the observed version is returned.
		obs, err := ctx.PutIf(&a, ver, []byte("stale"))
		if !errors.Is(err, core.ErrConflict) || obs != ver2 {
			t.Fatalf("stale putif: obs=%d err=%v", obs, err)
		}
		buf := make([]byte, 8)
		if _, err := ctx.Read(&a, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, []byte("update-1")) {
			t.Fatalf("payload %q after rejected stale write", buf)
		}
	})
}

func TestScanWhere(t *testing.T) {
	eachBackend(t, func(t *testing.T, _ *core.Store, ctx *Ctx) {
		var class int
		for i := 1; i <= 10; i++ {
			a, err := ctx.Alloc(16)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.Write(&a, u64le(uint64(i*10))); err != nil {
				t.Fatal(err)
			}
			class = int(a.Class())
		}
		matches, err := ctx.ScanWhere(class, rpc.PredGtU64, 0, u64le(70), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 3 { // 80, 90, 100
			t.Fatalf("got %d matches, want 3", len(matches))
		}
		for _, m := range matches {
			if v := binary.LittleEndian.Uint64(m.Payload); v <= 70 {
				t.Fatalf("match %d violates predicate", v)
			}
			if m.Addr.IsZero() {
				t.Fatal("match carries no pointer")
			}
		}
		// Limit clamps the result.
		matches, err = ctx.ScanWhere(class, rpc.PredGtU64, 0, u64le(0), 2)
		if err != nil || len(matches) != 2 {
			t.Fatalf("limited scan: %d %v", len(matches), err)
		}
	})
}

func TestRMWMixedBatch(t *testing.T) {
	eachBackend(t, func(t *testing.T, _ *core.Store, ctx *Ctx) {
		c1 := counterObj(t, ctx, 16)
		c2 := counterObj(t, ctx, 16)
		c3, err := ctx.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}

		ops := []RMWOp{
			{Kind: RMWFetchAdd, Addr: &c1, Offset: 0, Delta: 7},
			{Kind: RMWCas, Addr: &c2, Offset: 0, Old: u64le(0), New: u64le(11)},
			{Kind: RMWCondWrite, Addr: &c3, Mode: rpc.CondIfAbsent, Value: []byte("init")},
			{Kind: RMWCas, Addr: &c2, Offset: 0, Old: u64le(999), New: u64le(1)}, // loses
		}
		results, err := ctx.RMW(ops)
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err != nil || results[0].Old != 0 {
			t.Fatalf("rmw fetchadd: %+v", results[0])
		}
		if results[1].Err != nil {
			t.Fatalf("rmw cas: %v", results[1].Err)
		}
		if results[2].Err != nil || results[2].Version == 0 {
			t.Fatalf("rmw condwrite: %+v", results[2])
		}
		if !errors.Is(results[3].Err, core.ErrConflict) {
			t.Fatalf("losing cas: %v", results[3].Err)
		}

		// Batch-level validation.
		if _, err := ctx.RMW([]RMWOp{{Kind: 77, Addr: &c1}}); err == nil {
			t.Fatal("unknown kind accepted")
		}
		if _, err := ctx.RMW([]RMWOp{{Kind: RMWCas}}); err == nil {
			t.Fatal("nil addr accepted")
		}
		if res, err := ctx.RMW(nil); err != nil || res != nil {
			t.Fatalf("empty batch: %v %v", res, err)
		}
	})
}

func TestMultiFetchAdd(t *testing.T) {
	eachBackend(t, func(t *testing.T, _ *core.Store, ctx *Ctx) {
		// 64 ops: large enough that the server shards the RMW batch
		// across idle worker tokens.
		addrs := make([]*core.Addr, 64)
		for i := range addrs {
			a := counterObj(t, ctx, 16)
			addrs[i] = &a
		}
		results, err := ctx.MultiFetchAdd(addrs, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil || r.Old != 0 {
				t.Fatalf("op %d: %+v", i, r)
			}
		}
		results, err = ctx.MultiFetchAdd(addrs, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil || r.Old != 3 {
				t.Fatalf("second pass op %d: %+v", i, r)
			}
		}
	})
}

// TestMultiFetchAddRetriesAcrossConnReset: an RMW batch rides OpBatch with
// every sub-op tokened, so a connection reset mid-batch is invisible to
// MultiFetchAdd — the frame is re-issued over a re-dialed channel — and
// each counter advances exactly once.
func TestMultiFetchAddRetriesAcrossConnReset(t *testing.T) {
	_, ts := newRetryServer(t)
	inj := fault.NewInjector(35, fault.Plan{})
	opts := fastOpts()
	opts.Dialer = inj.Dial
	ctx, err := CreateCtxOptions(ts.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()

	addrs := make([]*core.Addr, 8)
	for i := range addrs {
		a := counterObj(t, ctx, 16)
		addrs[i] = &a
	}
	// Exactly one frame is lost: the reset disarms as soon as it fires.
	inj.SetPlan(fault.Plan{ResetAfterWrites: 1})
	go func() {
		for inj.Stats().Resets == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		inj.SetPlan(fault.Plan{})
	}()
	results, err := ctx.MultiFetchAdd(addrs, 0, 1)
	if err != nil {
		t.Fatalf("MultiFetchAdd across reset: %v", err)
	}
	for i, r := range results {
		if r.Err != nil || r.Old != 0 {
			t.Fatalf("op %d across reset: %+v", i, r)
		}
	}
	if inj.Stats().Resets == 0 {
		t.Fatal("fault never fired; test proved nothing")
	}
	for i, a := range addrs {
		if v, err := ctx.FetchAdd(a, 0, 0); err != nil || v != 1 {
			t.Fatalf("counter %d = %d, %v; want 1", i, v, err)
		}
	}
}

func TestFetchAddAsync(t *testing.T) {
	eachBackend(t, func(t *testing.T, _ *core.Store, ctx *Ctx) {
		a := counterObj(t, ctx, 16)
		const n = 100
		futs := make([]*AtomicFuture, n)
		addrs := make([]core.Addr, n)
		for i := range futs {
			addrs[i] = a
			futs[i] = ctx.FetchAddAsync(&addrs[i], 0, 1)
		}
		ctx.Flush()
		seen := make(map[uint64]bool)
		for i, f := range futs {
			old, err := f.Wait()
			if err != nil {
				t.Fatalf("future %d: %v", i, err)
			}
			if seen[old] {
				t.Fatalf("pre-add value %d observed twice — increments not atomic", old)
			}
			seen[old] = true
		}
		final, err := ctx.FetchAdd(&a, 0, 0)
		if err != nil || final != n {
			t.Fatalf("final counter %d, want %d", final, n)
		}
	})
}

func TestWriteAsync(t *testing.T) {
	eachBackend(t, func(t *testing.T, _ *core.Store, ctx *Ctx) {
		a := counterObj(t, ctx, 16)
		fut := ctx.WriteAsync(&a, []byte("async-write"))
		ctx.Flush()
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 11)
		if _, err := ctx.Read(&a, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, []byte("async-write")) {
			t.Fatalf("read back %q", buf)
		}
	})
}

// TestPushdownSurvivesCompaction: pushdown atomics against objects that a
// compaction pass relocates keep working and fold the corrected pointer
// into the caller's copy.
func TestPushdownSurvivesCompaction(t *testing.T) {
	eachBackend(t, func(t *testing.T, store *core.Store, ctx *Ctx) {
		// Fragment the class so compaction relocates survivors.
		var addrs []core.Addr
		for i := 0; i < 256; i++ {
			a := counterObj(t, ctx, 16)
			addrs = append(addrs, a)
		}
		for i := range addrs {
			if i%2 == 1 {
				if err := ctx.Free(&addrs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		a := addrs[0]
		if _, err := ctx.FetchAdd(&a, 0, 41); err != nil {
			t.Fatal(err)
		}
		store.CompactClass(core.CompactOptions{Class: int(a.Class()), Leader: 0, MaxOccupancy: core.Occ(1.0)})
		old, err := ctx.FetchAdd(&a, 0, 1)
		if err != nil || old != 41 {
			t.Fatalf("post-compaction fetchadd: %d %v", old, err)
		}
	})
}

// TestCloseDrainsAtomicFutures: Close resolves every pending future with
// an error instead of leaving waiters hung.
func TestCloseDrainsAtomicFutures(t *testing.T) {
	store := newStore(t)
	srv := rpc.NewServer(store)
	t.Cleanup(srv.Close)
	ctx, err := NewLocal(srv)
	if err != nil {
		t.Fatal(err)
	}
	a := counterObj(t, ctx, 16)
	futs := []*AtomicFuture{
		ctx.FetchAddAsync(&a, 0, 1),
		ctx.FetchAddAsync(&a, 0, 1),
	}
	wfut := ctx.WriteAsync(&a, []byte("pending"))
	ctx.Close()
	for _, f := range futs {
		if _, err := f.Wait(); err == nil {
			t.Fatal("future resolved OK after Close without a flush")
		}
	}
	if _, err := wfut.Wait(); err == nil {
		t.Fatal("write future resolved OK after Close without a flush")
	}
}

// TestScanReadAfterRelocation: a stale pointer still reads through the
// block-scan fallback, and the pointer comes back corrected.
func TestScanReadAfterRelocation(t *testing.T) {
	eachBackend(t, func(t *testing.T, store *core.Store, ctx *Ctx) {
		var addrs []core.Addr
		for i := 0; i < 256; i++ {
			a, err := ctx.Alloc(16)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.Write(&a, u64le(uint64(i))); err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, a)
		}
		for i := range addrs {
			if i%2 == 1 {
				if err := ctx.Free(&addrs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		stale := addrs[0]
		store.CompactClass(core.CompactOptions{Class: int(stale.Class()), Leader: 0, MaxOccupancy: core.Occ(1.0)})

		if _, err := ctx.ScanRead(&stale, make([]byte, 4)); !errors.Is(err, core.ErrShortBuffer) {
			t.Fatalf("short buffer: %v", err)
		}
		buf := make([]byte, 16)
		if _, err := ctx.SmartRead(&stale, buf); err != nil {
			t.Fatalf("smart read: %v", err)
		}
		if v := binary.LittleEndian.Uint64(buf); v != 0 {
			t.Fatalf("read back %d, want 0", v)
		}
	})
}

func TestNextTokenNeverZero(t *testing.T) {
	c := &Ctx{}
	c.tokenBase = ^uint64(0) // forces the wrap case on the first mint
	for i := 0; i < 3; i++ {
		if c.nextToken() == 0 {
			t.Fatal("minted the reserved zero token")
		}
	}
}
