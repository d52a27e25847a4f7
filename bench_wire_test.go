// Wire-path benchmarks: the zero-copy transport measured both over the
// shared-memory fast path (what a co-located client actually gets, since
// Dial auto-selects it) and with shared memory disabled (TCP loopback, the
// apples-to-apples comparison against the pre-writev numbers in
// bench_results.txt). The alloc-budget tests pin the zero-copy claims as
// hard regressions: DirectRead stays within 4 allocs/op and a batch=128
// MultiRead amortizes to zero allocations per sub-read.
package corm

import (
	"bytes"
	"testing"

	"corm/internal/client"
	"corm/internal/core"
	"corm/internal/rpc"
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

// benchWireConn starts a TCP-listening node and one raw transport.Conn.
func benchWireConn(b *testing.B, disableSHM bool) *transport.Conn {
	b.Helper()
	srv, err := NewServer(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	conn, err := transport.DialOptions(addr, transport.Options{DisableSharedMemory: disableSHM})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		conn.Close()
		srv.Close()
	})
	return conn
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

// BenchmarkWireRPC is the single-op RPC read latency over each wire — the
// headline number tracked in BENCH_wire.json.
func BenchmarkWireRPC(b *testing.B) {
	for _, v := range wireVariants {
		b.Run(v.name, func(b *testing.B) {
			conn := benchWireConn(b, v.disableSHM)
			resp, err := conn.Call(rpc.Request{Op: rpc.OpAlloc, Size: 64})
			if err != nil || resp.Status != rpc.StatusOK {
				b.Fatalf("alloc: %v %v", resp.Status, err)
			}
			addr := resp.Addr
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := conn.Call(rpc.Request{Op: rpc.OpRead, Addr: addr, Size: 64})
				if err != nil {
					b.Fatal(err)
				}
				if resp.Status != rpc.StatusOK {
					b.Fatal(resp.Status)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkWireDirectRead is the single-op emulated one-sided read over
// each wire, landing in the registered receive ring.
func BenchmarkWireDirectRead(b *testing.B) {
	for _, v := range wireVariants {
		b.Run(v.name, func(b *testing.B) {
			conn := benchWireConn(b, v.disableSHM)
			resp, err := conn.Call(rpc.Request{Op: rpc.OpAlloc, Size: 64})
			if err != nil || resp.Status != rpc.StatusOK {
				b.Fatalf("alloc: %v %v", resp.Status, err)
			}
			addr := resp.Addr
			buf := make([]byte, core.DataStride(64))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.DirectRead(addr.RKey(), addr.VAddr(), buf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkWireMultiRead128 is the 1-core batched read path: 128 sub-reads
// per frame, decoded straight out of the receive lease. b.N counts
// sub-reads, so ns/op and the sub-reads/s metric compare directly with the
// single-op numbers.
func BenchmarkWireMultiRead128(b *testing.B) {
	const batch = 128
	for _, v := range wireVariants {
		b.Run(v.name, func(b *testing.B) {
			cli, addrs := benchWireClient(b, v.disableSHM, batch)
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
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sub-reads/s")
		})
	}
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
