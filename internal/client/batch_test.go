package client

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corm/internal/core"
	"corm/internal/fault"
	"corm/internal/rpc"
	"corm/internal/transport"
)

// putN allocates and writes n distinct 64-byte objects.
func putN(t *testing.T, ctx *Ctx, n int) ([]*core.Addr, [][]byte) {
	t.Helper()
	addrs := make([]*core.Addr, n)
	want := make([][]byte, n)
	for i := 0; i < n; i++ {
		a, err := ctx.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, 64)
		if err := ctx.Write(&a, want[i]); err != nil {
			t.Fatal(err)
		}
		addrs[i] = &a
	}
	return addrs, want
}

// TestMultiReadRoundtrip: a MultiRead returns every object's payload in
// input order, over both backends.
func TestMultiReadRoundtrip(t *testing.T) {
	eachBackend(t, func(t *testing.T, store *core.Store, ctx *Ctx) {
		const n = 16
		addrs, want := putN(t, ctx, n)
		bufs := make([][]byte, n)
		for i := range bufs {
			bufs[i] = make([]byte, 64)
		}
		results, err := ctx.MultiRead(addrs, bufs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("sub %d: %v", i, r.Err)
			}
			if r.N != 64 || !bytes.Equal(bufs[i], want[i]) {
				t.Fatalf("sub %d: n=%d payload mismatch", i, r.N)
			}
		}
		// Empty batches never touch the wire.
		if rs, err := ctx.MultiRead(nil, nil); err != nil || rs != nil {
			t.Fatalf("empty batch: %v %v", rs, err)
		}
	})
}

// TestMultiReadCorrectsPointers: compaction moves objects between a write
// and a batched read; every sub-read still lands and folds the corrected
// pointer (with FlagIndirectObserved) into the caller's copy.
func TestMultiReadCorrectsPointers(t *testing.T) {
	eachBackend(t, func(t *testing.T, store *core.Store, ctx *Ctx) {
		const n = 24
		addrs, want := putN(t, ctx, n)
		// Fragment: free every other object, then compact the class.
		for i := 1; i < n; i += 2 {
			if err := ctx.Free(addrs[i]); err != nil {
				t.Fatal(err)
			}
		}
		store.CompactClass(core.CompactOptions{Class: store.Allocator().Config().ClassFor(64), Leader: 0, MaxOccupancy: core.Occ(1.0)})
		var live []*core.Addr
		var liveWant [][]byte
		for i := 0; i < n; i += 2 {
			live = append(live, addrs[i])
			liveWant = append(liveWant, want[i])
		}
		bufs := make([][]byte, len(live))
		for i := range bufs {
			bufs[i] = make([]byte, 64)
		}
		results, err := ctx.MultiRead(live, bufs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("sub %d: %v", i, r.Err)
			}
			if !bytes.Equal(bufs[i], liveWant[i]) {
				t.Fatalf("sub %d: payload mismatch after compaction", i)
			}
		}
		// Re-read through the (possibly corrected) pointers one at a time to
		// prove the corrections were folded back into the callers' copies.
		for i, a := range live {
			buf := make([]byte, 64)
			if _, err := ctx.Read(a, buf); err != nil || !bytes.Equal(buf, liveWant[i]) {
				t.Fatalf("re-read %d: %v", i, err)
			}
		}
	})
}

// TestMultiWriteMixedFailures: a freed pointer among valid ones fails only
// its own sub-op.
func TestMultiWriteMixedFailures(t *testing.T) {
	eachBackend(t, func(t *testing.T, store *core.Store, ctx *Ctx) {
		addrs, _ := putN(t, ctx, 3)
		if err := ctx.Free(addrs[1]); err != nil {
			t.Fatal(err)
		}
		payloads := [][]byte{
			bytes.Repeat([]byte{0xA1}, 64),
			bytes.Repeat([]byte{0xA2}, 64),
			bytes.Repeat([]byte{0xA3}, 64),
		}
		results, err := ctx.MultiWrite(addrs, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Err != nil || results[2].Err != nil {
			t.Fatalf("valid writes failed: %v %v", results[0].Err, results[2].Err)
		}
		if !errors.Is(results[1].Err, core.ErrNotFound) {
			t.Fatalf("freed write: want ErrNotFound, got %v", results[1].Err)
		}
	})
}

// TestMultiAllocFree: a batched alloc yields distinct usable pointers; a
// batched free releases them all.
func TestMultiAllocFree(t *testing.T) {
	eachBackend(t, func(t *testing.T, store *core.Store, ctx *Ctx) {
		sizes := make([]int, 20)
		for i := range sizes {
			sizes[i] = 64
		}
		rs, err := ctx.MultiAlloc(sizes)
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]*core.Addr, len(rs))
		for i := range rs {
			if rs[i].Err != nil {
				t.Fatalf("alloc %d: %v", i, rs[i].Err)
			}
			addrs[i] = &rs[i].Addr
		}
		frees, err := ctx.MultiFree(addrs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range frees {
			if r.Err != nil {
				t.Fatalf("free %d: %v", i, r.Err)
			}
		}
		// Freed pointers now read as not-found.
		bufs := make([][]byte, len(addrs))
		for i := range bufs {
			bufs[i] = make([]byte, 64)
		}
		reads, err := ctx.MultiRead(addrs, bufs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reads {
			if !errors.Is(r.Err, core.ErrNotFound) {
				t.Fatalf("read-after-free %d: want ErrNotFound, got %v", i, r.Err)
			}
		}
	})
}

// TestBatchOversizedFrame: a batch whose frame exceeds the transport limit
// fails cleanly with ErrFrameTooLarge — before touching the wire, leaving
// the channel healthy for the next (sane) call.
func TestBatchOversizedFrame(t *testing.T) {
	_, ts := newRetryServer(t)
	ctx, err := CreateCtxOptions(ts.Addr(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	a, err := ctx.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}

	// 5 sub-writes of 2 MiB each: 10 MiB batch > the 8 MiB frame cap.
	huge := make([]byte, 2<<20)
	addrs := make([]*core.Addr, 5)
	payloads := make([][]byte, 5)
	for i := range addrs {
		aa := a
		addrs[i] = &aa
		payloads[i] = huge
	}
	if _, err := ctx.MultiWrite(addrs, payloads); !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}

	// The channel survived: a normal operation still works.
	buf := make([]byte, 64)
	if _, err := ctx.Read(&a, buf); err != nil {
		t.Fatalf("read after oversized batch: %v", err)
	}
}

// TestMultiReadRetriesAcrossConnReset: an injected mid-batch connection
// reset is invisible to MultiRead — the idempotent batch is re-issued over
// a re-dialed channel.
func TestMultiReadRetriesAcrossConnReset(t *testing.T) {
	_, ts := newRetryServer(t)
	inj := fault.NewInjector(33, fault.Plan{})
	opts := fastOpts()
	opts.Dialer = inj.Dial
	ctx, err := CreateCtxOptions(ts.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()

	addrs, want := putN(t, ctx, 8)
	// Arm a reset for the next write on the dialed RPC channel and disarm
	// as soon as it fires, so exactly one batch frame is lost; the
	// client's backed-off re-issue lands after the disarm.
	inj.SetPlan(fault.Plan{ResetAfterWrites: 1})
	go func() {
		for inj.Stats().Resets == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		inj.SetPlan(fault.Plan{})
	}()

	bufs := make([][]byte, len(addrs))
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	results, err := ctx.MultiRead(addrs, bufs)
	if err != nil {
		t.Fatalf("MultiRead across reset: %v", err)
	}
	for i, r := range results {
		if r.Err != nil || !bytes.Equal(bufs[i], want[i]) {
			t.Fatalf("sub %d after reset: %v", i, r.Err)
		}
	}
	if inj.Stats().Resets == 0 {
		t.Fatal("fault never fired; test proved nothing")
	}
}

// TestMultiWriteSurfacesConnBroken: writes are never re-issued — a
// mid-batch connection fault surfaces as ErrConnBroken to the caller.
func TestMultiWriteSurfacesConnBroken(t *testing.T) {
	_, ts := newRetryServer(t)
	inj := fault.NewInjector(34, fault.Plan{})
	opts := fastOpts()
	opts.Dialer = inj.Dial
	ctx, err := CreateCtxOptions(ts.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()

	addrs, _ := putN(t, ctx, 4)
	inj.SetPlan(fault.Plan{ResetAfterWrites: 1})
	payloads := make([][]byte, len(addrs))
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{0xEE}, 64)
	}
	if _, err := ctx.MultiWrite(addrs, payloads); !errors.Is(err, transport.ErrConnBroken) {
		t.Fatalf("want ErrConnBroken, got %v", err)
	}
	if inj.Stats().Resets == 0 {
		t.Fatal("fault never fired; test proved nothing")
	}
}

// countingBackend wraps a Backend and counts OpBatch calls, to prove that
// asynchronous reads coalesce.
type countingBackend struct {
	Backend
	batches atomic.Int64
	subs    atomic.Int64
}

func (cb *countingBackend) CallLease(req rpc.Request) (rpc.Response, *transport.Lease, error) {
	if req.Op == rpc.OpBatch {
		cb.batches.Add(1)
		if subs, err := rpc.DecodeBatchRequests(req.Payload, nil); err == nil {
			cb.subs.Add(int64(len(subs)))
		}
	}
	return cb.Backend.CallLease(req)
}

// TestReadAsyncCoalesces: futures issued back-to-back resolve correctly
// and ride far fewer OpBatch round trips than there are reads.
func TestReadAsyncCoalesces(t *testing.T) {
	store := newStore(t)
	srv := rpc.NewServer(store)
	t.Cleanup(srv.Close)
	inner, err := NewLocal(srv)
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: inner.backend}
	ctx := inner
	ctx.backend = cb
	t.Cleanup(func() { ctx.Close() })
	ctx.AsyncWindow = 2 * time.Millisecond
	ctx.AsyncMaxBatch = 64

	const n = 32
	addrs, want := putN(t, ctx, n)
	bufs := make([][]byte, n)
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		bufs[i] = make([]byte, 64)
		futs[i] = ctx.ReadAsync(addrs[i], bufs[i])
	}
	for i, f := range futs {
		nn, err := f.Wait()
		if err != nil || nn != 64 {
			t.Fatalf("future %d: n=%d err=%v", i, nn, err)
		}
		if !bytes.Equal(bufs[i], want[i]) {
			t.Fatalf("future %d: payload mismatch", i)
		}
	}
	if got := cb.subs.Load(); got != n {
		t.Fatalf("%d sub-reads dispatched, want %d", got, n)
	}
	if got := cb.batches.Load(); got >= n/2 {
		t.Fatalf("%d batches for %d reads: no coalescing", got, n)
	}
}

// TestReadAsyncMaxBatchFlush: hitting AsyncMaxBatch flushes immediately,
// without waiting for the window.
func TestReadAsyncMaxBatchFlush(t *testing.T) {
	store := newStore(t)
	srv := rpc.NewServer(store)
	t.Cleanup(srv.Close)
	ctx, err := NewLocal(srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	ctx.AsyncWindow = time.Hour // only a full batch can flush
	ctx.AsyncMaxBatch = 4

	addrs, want := putN(t, ctx, 4)
	bufs := make([][]byte, 4)
	futs := make([]*Future, 4)
	for i := range addrs {
		bufs[i] = make([]byte, 64)
		futs[i] = ctx.ReadAsync(addrs[i], bufs[i])
	}
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		for _, f := range futs {
			f.Wait()
		}
	}()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("full batch did not flush without the window timer")
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i], want[i]) {
			t.Fatalf("future %d: payload mismatch", i)
		}
	}
}

// TestReadAsyncConcurrent: many goroutines issuing async reads against one
// context race the batcher's flush paths (window, max-batch, Flush) —
// run under -race this is the batcher's memory-safety proof.
func TestReadAsyncConcurrent(t *testing.T) {
	store := newStore(t)
	srv := rpc.NewServer(store)
	t.Cleanup(srv.Close)
	ctx, err := NewLocal(srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	ctx.AsyncWindow = 100 * time.Microsecond
	ctx.AsyncMaxBatch = 8

	addrs, want := putN(t, ctx, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 50; i++ {
				k := (g + i) % len(addrs)
				a := *addrs[k] // private pointer copy per read
				f := ctx.ReadAsync(&a, buf)
				if i%10 == 0 {
					ctx.Flush()
				}
				if n, err := f.Wait(); err != nil || n != 64 {
					t.Errorf("g%d i%d: n=%d err=%v", g, i, n, err)
					return
				}
				if !bytes.Equal(buf, want[k]) {
					t.Errorf("g%d i%d: payload mismatch", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
