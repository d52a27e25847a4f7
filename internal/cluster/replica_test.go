// Tests for the pool-level ReplicaSet API (raw k-copy objects without
// the KV index) and for the replicated batch put path.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"corm/internal/metrics"
)

// tripBreaker hammers a killed node with reads until its breaker opens.
func tripBreaker(t *testing.T, pool *Pool, victim int) {
	t.Helper()
	g := GlobalAddr{Node: victim}
	buf := make([]byte, 8)
	for i := 0; i < pool.FailThreshold*4 && !pool.NodeDown(victim); i++ {
		pool.Read(&g, buf)
	}
	if !pool.NodeDown(victim) {
		t.Fatal("breaker did not open")
	}
}

// TestPutOneWriteFramePerReplica: a fault-free k=3 W=3 overwrite, once
// spares are stocked, sends each replica its record as one OpWrite round
// trip: three write RPCs per Put, and no batch frame.
func TestPutOneWriteFramePerReplica(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 3})
	writes := metrics.Default().Histogram(`corm_rpc_latency_ns{op="write"}`, "")
	batches := metrics.Default().Histogram(`corm_rpc_latency_ns{op="batch"}`, "")
	for i := 0; i < 2; i++ { // the second Put stocks the first one's records as spares
		if err := kv.Put("k", []byte(fmt.Sprintf("warm%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	const puts = 20
	w0, b0 := writes.Snapshot().Count, batches.Snapshot().Count
	for i := 0; i < puts; i++ {
		if err := kv.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := writes.Snapshot().Count - w0; d != 3*puts {
		t.Fatalf("%d Puts cost %d OpWrite RPCs, want %d", puts, d, 3*puts)
	}
	if d := batches.Snapshot().Count - b0; d != 0 {
		t.Fatalf("%d Puts cost %d OpBatch frames, want 0", puts, d)
	}
}

// TestReplicaSetLifecycle: alloc k copies, write with W=2, read, fail
// over past a killed primary, free.
func TestReplicaSetLifecycle(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()

	rs, err := pool.AllocReplicated(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Reps) != 3 {
		t.Fatalf("got %d replicas, want 3", len(rs.Reps))
	}
	seen := map[int]bool{}
	for _, g := range rs.Reps {
		if seen[g.Node] {
			t.Fatalf("replica nodes not distinct: %v", rs.Reps)
		}
		seen[g.Node] = true
	}

	payload := []byte("replicated-payload")
	if err := pool.WriteReplicated(rs, payload, 2); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 64)
	n, rep, err := pool.ReadReplicated(rs, buf)
	if err != nil || rep != 0 {
		t.Fatalf("read: n=%d rep=%d err=%v", n, rep, err)
	}
	if !bytes.Equal(buf[:len(payload)], payload) {
		t.Fatalf("read back %q, want %q", buf[:len(payload)], payload)
	}

	// Kill the primary: the read must serve from a later replica.
	c.Node(rs.Reps[0].Node).Kill()
	before := cuFailovers.Value()
	n, rep, err = pool.ReadReplicated(rs, buf)
	if err != nil || rep == 0 {
		t.Fatalf("failover read: n=%d rep=%d err=%v", n, rep, err)
	}
	if !bytes.Equal(buf[:len(payload)], payload) {
		t.Fatalf("failover read back %q, want %q", buf[:len(payload)], payload)
	}
	if cuFailovers.Value() <= before {
		t.Fatal("failover counter did not move")
	}

	// Free tolerates the dead node once its breaker has opened.
	pool.ProbeCooldown = time.Hour
	tripBreaker(t, pool, rs.Reps[0].Node)
	if err := pool.FreeReplicated(rs); err != nil {
		t.Fatalf("free: %v", err)
	}
}

// TestAllocReplicatedNeedsHealthyNodes: with a breaker open, k equal to
// the pool size is unsatisfiable and the partial alloc must not leak.
func TestAllocReplicatedNeedsHealthyNodes(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour

	const victim = 2
	c.Node(victim).Kill()
	// Trip the breaker so pickReplicaNodes sees the node as down.
	tripBreaker(t, pool, victim)

	if _, err := pool.AllocReplicated(64, 3); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("alloc with 2/3 healthy nodes: err=%v, want ErrNodeDown", err)
	}
	rs, err := pool.AllocReplicated(64, 2)
	if err != nil {
		t.Fatalf("alloc k=2 on the healthy pair: %v", err)
	}
	for _, rep := range rs.Reps {
		if rep.Node == victim {
			t.Fatalf("allocated on the down node: %v", rs.Reps)
		}
	}
	if err := pool.FreeReplicated(rs); err != nil {
		t.Fatal(err)
	}
}

// TestWriteReplicatedConcern: W beyond the reachable replicas fails with
// ErrWriteConcern; W within them succeeds.
func TestWriteReplicatedConcern(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour

	rs, err := pool.AllocReplicated(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	victim := rs.Reps[1].Node
	c.Node(victim).Kill()

	err = pool.WriteReplicated(rs, []byte("x"), 3)
	if !errors.Is(err, ErrWriteConcern) {
		t.Fatalf("W=3 with a dead replica: err=%v, want ErrWriteConcern", err)
	}
	if ne, ok := AsNodeError(err); !ok || ne.Node != victim {
		t.Fatalf("write-concern error does not name the killed node %d: %v", victim, err)
	}
	if err := pool.WriteReplicated(rs, []byte("x"), 2); err != nil {
		t.Fatalf("W=2 with a dead replica: %v", err)
	}
}

// TestMultiPutReplicated: the batched put path at k>1 — fan-out per
// winning key, duplicate keys resolved last-wins, byte-exact MultiGet,
// overwrite bumps versions, Delete releases every copy.
func TestMultiPutReplicated(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 2})

	n := 40
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("mput-%d", i%(n-1)) // one duplicate: first and last collide
		vals[i] = []byte(fmt.Sprintf("mval-%d", i))
	}
	errs, err := kv.MultiPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("put %s: %v", keys[i], e)
		}
	}
	if got, want := kv.Len(), n-1; got != want {
		t.Fatalf("Len=%d, want %d (duplicate collapsed)", got, want)
	}

	got, found, err := kv.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		want := vals[i]
		if keys[i] == keys[n-1] {
			want = vals[n-1] // last write wins for the duplicated key
		}
		if !found[i] || !bytes.Equal(got[i], want) {
			t.Fatalf("key %s: got %q found=%v, want %q", keys[i], got[i], found[i], want)
		}
	}

	// Overwrite everything through the batched path and re-verify.
	for i := range vals {
		vals[i] = []byte(fmt.Sprintf("mval2-%d", i))
	}
	if _, err := kv.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, kv, 5*time.Second)
	for i := range keys {
		want := vals[i]
		if keys[i] == keys[n-1] {
			want = vals[n-1]
		}
		v, ok, err := kv.Get(keys[i])
		if err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("overwritten key %s: %q (found=%v err=%v), want %q", keys[i], v, ok, err, want)
		}
	}

	// Delete all and check nothing leaked on any store.
	for _, k := range keys {
		if err := kv.Delete(k); err != nil {
			t.Fatalf("delete %s: %v", k, err)
		}
	}
	for i := 0; i < c.Nodes(); i++ {
		if s := c.Node(i).Store().Stats(); s.Allocs-s.Frees != 0 {
			t.Fatalf("node %d leaked %d objects", i, s.Allocs-s.Frees)
		}
	}
}

// TestStartProberHealsDownNode: the background prober closes an open
// breaker once the node is back, without any foreground traffic.
func TestStartProberHealsDownNode(t *testing.T) {
	c := spinLocal(t, 2)
	pool := c.Pool()
	pool.ProbeCooldown = time.Millisecond

	const victim = 1
	c.Node(victim).Kill()
	tripBreaker(t, pool, victim)

	stop := pool.StartProber(2 * time.Millisecond)
	defer stop()
	if err := c.Node(victim).Restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pool.NodeDown(victim) {
		if time.Now().After(deadline) {
			t.Fatal("prober never closed the breaker after restart")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicatorRunning covers the service state flags.
func TestReplicatorRunning(t *testing.T) {
	c := spinLocal(t, 2)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 2})
	rep := NewReplicator(kv, ReplicatorConfig{Interval: time.Hour})
	if rep.Running() {
		t.Fatal("running before Start")
	}
	rep.Start()
	rep.Start() // idempotent
	if !rep.Running() {
		t.Fatal("not running after Start")
	}
	rep.Stop()
	rep.Stop() // idempotent
	if rep.Running() {
		t.Fatal("still running after Stop")
	}
}
