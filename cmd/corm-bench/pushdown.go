// The pushdown benchmark: server-side FetchAdd against the client-side
// Read+Write emulation it replaces, uncontended and with 8 goroutines
// contending on one key, emitted as machine-readable JSON
// (BENCH_pushdown.json). The emulation is the correctness-preserving
// form: a read-modify-write is only atomic if concurrent callers are
// mutually excluded, so it serializes behind a lock and cannot pipeline —
// exactly the cost profile near-data compute removes (one round trip per
// op, atomicity enforced at the data, arbitrary concurrency).
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"corm/internal/client"
	"corm/internal/core"
)

// pushdownResult is the benchmark's JSON document (BENCH_pushdown.json).
type pushdownResult struct {
	Note    string                 `json:"note"`
	Numbers map[string]wireNumbers `json:"numbers"`

	// SpeedupUncontended is pipelined pushdown ops/s over the 1-goroutine
	// emulation; SpeedupContended8 is 8-goroutine pushdown over the
	// 8-goroutine (lock-serialized) emulation.
	SpeedupUncontended float64         `json:"speedup_uncontended"`
	SpeedupContended8  float64         `json:"speedup_contended_8"`
	Bars               map[string]bool `json:"bars"`
}

// pushdownNode starts a TCP node with one zeroed 8-byte counter object.
func pushdownNode() (*client.Ctx, core.Addr, func()) {
	srv, addr, closeSrv := wireNode()
	_ = srv
	cli, err := client.CreateCtx(addr)
	if err != nil {
		fatalf("pushdown: client: %v", err)
	}
	ctr, err := cli.Alloc(8)
	if err != nil {
		fatalf("pushdown: alloc: %v", err)
	}
	if err := cli.Write(&ctr, make([]byte, 8)); err != nil {
		fatalf("pushdown: write: %v", err)
	}
	return cli, ctr, func() {
		cli.Close()
		closeSrv()
	}
}

// measurePushdownSync runs gor goroutines each issuing blocking pushdown
// FetchAdds against the same key. Each goroutine works on its own pointer
// copy so pointer corrections never race.
func measurePushdownSync(gor int) wireNumbers {
	cli, ctr, done := pushdownNode()
	defer done()
	return measure(1, func(b *testing.B) {
		b.ReportAllocs()
		var next int64
		var wg sync.WaitGroup
		for g := 0; g < gor; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := ctr
				for atomic.AddInt64(&next, 1) <= int64(b.N) {
					if _, err := cli.FetchAdd(&a, 0, 1); err != nil {
						fatalf("pushdown: fetchadd: %v", err)
					}
				}
			}()
		}
		wg.Wait()
	})
}

// measurePushdownAsync runs gor goroutines each keeping a window of
// FetchAddAsync futures in flight against the same key; the client
// coalesces them into OpBatch frames of tokened FetchAdds. Dedup tokens
// make the pipelining safe — this is the throughput form a counter service
// would actually run, and the one the emulation has no answer to: its lock
// admits one un-pipelined Read+Write pair at a time no matter how many
// callers pile up.
func measurePushdownAsync(gor int) wireNumbers {
	const window = 64
	cli, ctr, done := pushdownNode()
	defer done()
	return measure(1, func(b *testing.B) {
		b.ReportAllocs()
		var next int64
		var wg sync.WaitGroup
		for g := 0; g < gor; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// One pointer copy per window slot: a slot's pointer is
				// only touched again after its future resolved.
				addrs := make([]core.Addr, window)
				for i := range addrs {
					addrs[i] = ctr
				}
				futs := make([]*client.AtomicFuture, 0, window)
				for {
					futs = futs[:0]
					for i := 0; i < window; i++ {
						if atomic.AddInt64(&next, 1) > int64(b.N) {
							break
						}
						futs = append(futs, cli.FetchAddAsync(&addrs[i], 0, 1))
					}
					if len(futs) == 0 {
						return
					}
					cli.Flush()
					for _, f := range futs {
						if _, err := f.Wait(); err != nil {
							fatalf("pushdown: async fetchadd: %v", err)
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// measureEmulatedFetchAdd is the client-side emulation: lock, Read the
// 8-byte counter, add, Write it back, unlock. The lock is what makes it
// correct — and what makes it serialize under contention.
func measureEmulatedFetchAdd(gor int) wireNumbers {
	cli, ctr, done := pushdownNode()
	defer done()
	return measure(1, func(b *testing.B) {
		b.ReportAllocs()
		var mu sync.Mutex
		var next int64
		var wg sync.WaitGroup
		for g := 0; g < gor; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 8)
				for atomic.AddInt64(&next, 1) <= int64(b.N) {
					mu.Lock()
					if _, err := cli.Read(&ctr, buf); err != nil {
						fatalf("pushdown: emulated read: %v", err)
					}
					binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
					if err := cli.Write(&ctr, buf); err != nil {
						fatalf("pushdown: emulated write: %v", err)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	})
}

// runPushdown executes the pushdown drill and writes the JSON report. The
// bars are recorded (and printed) but do not fail the run — wall-clock
// ratios belong to the machine that sets the baseline.
func runPushdown(args []string) {
	fs := flag.NewFlagSet("pushdown", flag.ExitOnError)
	out := fs.String("out", "BENCH_pushdown.json", "output JSON path")
	fs.Parse(args)

	res := pushdownResult{
		Note:    "one 8B counter over TCP+shm loopback; emulated = lock+Read+Write (the correct client-side form); fetchadd_async = 64 futures in flight coalescing into OpBatch frames",
		Numbers: map[string]wireNumbers{},
		Bars:    map[string]bool{},
	}

	res.Numbers["fetchadd_sync_1g"] = measurePushdownSync(1)
	res.Numbers["fetchadd_sync_8g"] = measurePushdownSync(8)
	res.Numbers["fetchadd_async_1g"] = measurePushdownAsync(1)
	res.Numbers["fetchadd_async_8g"] = measurePushdownAsync(8)
	res.Numbers["emulated_1g"] = measureEmulatedFetchAdd(1)
	res.Numbers["emulated_8g"] = measureEmulatedFetchAdd(8)

	res.SpeedupUncontended = res.Numbers["fetchadd_async_1g"].OpsPerSec / res.Numbers["emulated_1g"].OpsPerSec
	res.SpeedupContended8 = res.Numbers["fetchadd_async_8g"].OpsPerSec / res.Numbers["emulated_8g"].OpsPerSec
	res.Bars["pushdown_ge_3x_uncontended"] = res.SpeedupUncontended >= 3
	res.Bars["pushdown_ge_5x_contended_8g"] = res.SpeedupContended8 >= 5

	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatalf("pushdown: marshal: %v", err)
	}
	doc = append(doc, '\n')
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		fatalf("pushdown: write %s: %v", *out, err)
	}
	os.Stdout.Write(doc)
	for name, ok := range res.Bars {
		if !ok {
			fmt.Fprintf(os.Stderr, "pushdown: bar missed on this machine: %s\n", name)
		}
	}
}
