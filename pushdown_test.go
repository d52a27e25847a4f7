// Near-data compute: the pushdown benchmarks and the atomics' correctness
// hammer. BenchmarkPushdownFetchAdd and BenchmarkEmulatedFetchAdd measure
// the pushdown claim: a server-side FetchAdd is one round trip where the
// client-side emulation pays lock + Read + Write. The linearizability
// test is the acceptance bar for the atomics themselves: 16 goroutines of
// mixed CAS/FetchAdd against one counter, with compaction merging blocks
// underneath, must lose no increment.
package corm

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"corm/internal/core"
)

// benchCounter starts a node over the selected wire with one zeroed
// 8-byte counter.
func benchCounter(b *testing.B, disableSHM bool) (*Client, core.Addr) {
	b.Helper()
	cli, addrs := benchWireClient(b, disableSHM, 0)
	_ = addrs
	ctr, err := cli.Alloc(8)
	if err != nil {
		b.Fatal(err)
	}
	if err := cli.Write(&ctr, make([]byte, 8)); err != nil {
		b.Fatal(err)
	}
	return cli, ctr
}

// BenchmarkPushdownFetchAdd is the blocking single-op pushdown add.
func BenchmarkPushdownFetchAdd(b *testing.B) {
	for _, v := range wireVariants {
		b.Run(v.name, func(b *testing.B) {
			cli, ctr := benchCounter(b, v.disableSHM)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.FetchAdd(&ctr, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkEmulatedFetchAdd is what the caller had before pushdown: a
// lock (required for atomicity), a Read, an increment, a Write.
func BenchmarkEmulatedFetchAdd(b *testing.B) {
	for _, v := range wireVariants {
		b.Run(v.name, func(b *testing.B) {
			cli, ctr := benchCounter(b, v.disableSHM)
			var mu sync.Mutex
			buf := make([]byte, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mu.Lock()
				if _, err := cli.Read(&ctr, buf); err != nil {
					b.Fatal(err)
				}
				binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
				if err := cli.Write(&ctr, buf); err != nil {
					b.Fatal(err)
				}
				mu.Unlock()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// TestCASFetchAddLinearizable is the acceptance hammer: 16 goroutines of
// mixed FetchAdd and CAS increments against one 8-byte counter while the
// server compacts the counter's class continuously. Every increment must
// land exactly once — the final counter equals the oracle kept with
// process atomics. Run with -race this also proves the server-side
// mutation path is data-race free against compaction.
func TestCASFetchAddLinearizable(t *testing.T) {
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

	ctr, err := cli.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Write(&ctr, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	class := int(ctr.Class())

	// Fragment the counter's class so every compaction pass has real
	// merges to perform around the counter.
	var churn []Addr
	for i := 0; i < 512; i++ {
		a, err := cli.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		churn = append(churn, a)
	}
	for i := range churn {
		if i%2 == 0 {
			if err := cli.Free(&churn[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	const (
		goroutines = 16
		perG       = 200
	)
	var oracle atomic.Uint64
	var stop atomic.Bool
	var compWG sync.WaitGroup
	compWG.Add(1)
	go func() {
		defer compWG.Done()
		for !stop.Load() {
			srv.Store().CompactClass(core.CompactOptions{Class: class, Leader: 0, MaxOccupancy: Occ(1.0)})
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := ctr
			buf := make([]byte, 8)
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					if _, err := cli.FetchAdd(&a, 0, 1); err != nil {
						t.Errorf("fetchadd: %v", err)
						return
					}
					oracle.Add(1)
					continue
				}
				// CAS increment loop: read, attempt old -> old+1.
				for {
					if _, err := cli.Read(&a, buf); err != nil {
						t.Errorf("read: %v", err)
						return
					}
					old := binary.LittleEndian.Uint64(buf)
					newb := make([]byte, 8)
					binary.LittleEndian.PutUint64(newb, old+1)
					err := cli.CAS(&a, 0, buf[:8], newb)
					if err == nil {
						oracle.Add(1)
						break
					}
					if !errors.Is(err, ErrConflict) {
						t.Errorf("cas: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	compWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	buf := make([]byte, 8)
	if _, err := cli.Read(&ctr, buf); err != nil {
		t.Fatal(err)
	}
	got := binary.LittleEndian.Uint64(buf)
	want := oracle.Load()
	if got != want {
		t.Fatalf("lost updates: counter=%d oracle=%d (%d increments lost)", got, want, want-got)
	}
	if want != goroutines*perG {
		t.Fatalf("oracle is %d, expected %d successful increments", want, goroutines*perG)
	}
}
