// Replication benchmarks: the cost of k-way fan-out writes and
// failed-over reads against the in-process cluster harness, comparable
// with the single-node TCP numbers in bench_results.txt. A replicated put
// sends one OpWrite per replica: into a spare slot it is posted from the
// caller's goroutine, into a fresh allocation it runs on a goroutine of its
// own, and the caller collects W completions from one queue. The remaining
// overhead versus k=1 is the fan-out itself and the version-tagged record
// copy. TestReplicatedPutAllocBudget pins the overwrite path's allocations.
package corm

import (
	"fmt"
	"testing"

	"corm/internal/cluster"
)

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

// BenchmarkReplicatedWrite measures KV puts at k=3 W=2 (the deployment
// the chaos suite drills), overwriting a rotating working set so version
// bumps and record frees stay on the hot path.
func BenchmarkReplicatedWrite(b *testing.B) {
	_, kv := benchReplicatedKV(b, 3, 2)
	value := make([]byte, 128)
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.Put(fmt.Sprintf("bench-%d", i%512), value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnreplicatedWrite is the k=1 baseline for the same workload.
func BenchmarkUnreplicatedWrite(b *testing.B) {
	_, kv := benchReplicatedKV(b, 1, 1)
	value := make([]byte, 128)
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.Put(fmt.Sprintf("bench-%d", i%512), value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailoverRead measures reads whose primary replica is dead:
// every Get walks past the downed node (breaker-gated after the first
// few) and serves from a backup.
func BenchmarkFailoverRead(b *testing.B) {
	c, kv := benchReplicatedKV(b, 3, 2)
	value := make([]byte, 128)
	for i := 0; i < 512; i++ {
		if err := kv.Put(fmt.Sprintf("bench-%d", i), value); err != nil {
			b.Fatal(err)
		}
	}
	c.Node(kv.ReplicasFor("bench-0")[0]).Kill()
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := kv.Get("bench-0"); err != nil || !ok {
			b.Fatalf("get: %v (found=%v)", err, ok)
		}
	}
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
