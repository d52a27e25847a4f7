// Batched-operation benchmarks: the same TCP read hot path as
// BenchmarkRPCThroughputParallel, but issued through Client.MultiRead so N
// sub-reads share one frame, one syscall pair, and one pending-call entry.
// b.N counts sub-reads (the loop advances by the batch width), so ops/s and
// allocs/op are directly comparable with the single-op numbers in
// bench_results.txt.
package corm

import (
	"fmt"
	"testing"
	"time"

	"corm/internal/core"
)

// benchBatchClient starts a TCP node and a full client context against it
// with `count` written 64-byte objects.
func benchBatchClient(b *testing.B, count int) (*Client, []*core.Addr) {
	b.Helper()
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	cli, err := Connect(addr)
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

// BenchmarkMultiReadBatch measures batched RPC reads over TCP at increasing
// batch widths. batch=1 pays the full per-frame cost per read (the
// single-op baseline plus batch framing); wider batches amortize it.
func BenchmarkMultiReadBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			cli, addrs := benchBatchClient(b, batch)
			bufs := make([][]byte, batch)
			for i := range bufs {
				bufs[i] = make([]byte, 64)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				n := batch
				if rem := b.N - i; rem < n {
					n = rem
				}
				results, err := cli.MultiRead(addrs[:n], bufs[:n])
				if err != nil {
					b.Fatal(err)
				}
				for k := range results {
					if results[k].Err != nil {
						b.Fatal(results[k].Err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkReadAsyncPipelined measures the future-based facade: a window of
// in-flight ReadAsync calls that the client-side batcher coalesces into
// OpBatch frames, waited in issue order.
func BenchmarkReadAsyncPipelined(b *testing.B) {
	const window = 64
	cli, addrs := benchBatchClient(b, window)
	bufs := make([][]byte, window)
	futs := make([]*Future, window)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += window {
		n := window
		if rem := b.N - i; rem < n {
			n = rem
		}
		for k := 0; k < n; k++ {
			futs[k] = cli.ReadAsync(addrs[k], bufs[k])
		}
		cli.Flush()
		for k := 0; k < n; k++ {
			if _, err := futs[k].Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
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
