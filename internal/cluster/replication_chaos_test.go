package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// spinLocal wraps the harness for tests.
func spinLocal(t *testing.T, n int) *LocalCluster {
	t.Helper()
	c, err := SpinLocal(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// keyWithPrimary finds a key whose rendezvous primary is the given node.
func keyWithPrimary(kv *KV, node int, salt string) string {
	for i := 0; ; i++ {
		key := fmt.Sprintf("%s-%d", salt, i)
		if kv.ReplicasFor(key)[0] == node {
			return key
		}
	}
}

// waitConverged polls until no key is below full replication.
func waitConverged(t *testing.T, kv *KV, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for kv.DegradedKeys() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("still %d under-replicated keys after %v", kv.DegradedKeys(), d)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicasForOrderedDistinct: the replica set is k distinct nodes,
// deterministic, led by the rendezvous primary, and every node is primary
// for a fair share of keys.
func TestReplicasForOrderedDistinct(t *testing.T) {
	c := spinLocal(t, 5)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3})
	primaries := make([]int, 5)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		reps := kv.ReplicasFor(key)
		if len(reps) != 3 {
			t.Fatalf("ReplicasFor(%s) = %v, want 3 nodes", key, reps)
		}
		seen := map[int]bool{}
		for _, n := range reps {
			if n < 0 || n >= 5 || seen[n] {
				t.Fatalf("ReplicasFor(%s) = %v: invalid or duplicate node", key, reps)
			}
			seen[n] = true
		}
		if reps[0] != kv.NodeFor(key) {
			t.Fatalf("ReplicasFor(%s)[0] = %d, NodeFor = %d", key, reps[0], kv.NodeFor(key))
		}
		again := kv.ReplicasFor(key)
		for j := range reps {
			if reps[j] != again[j] {
				t.Fatalf("ReplicasFor(%s) not deterministic: %v vs %v", key, reps, again)
			}
		}
		primaries[reps[0]]++
	}
	for n, count := range primaries {
		if count == 0 {
			t.Fatalf("node %d is primary for no key out of 200 — skewed rendezvous ranking", n)
		}
	}
}

// TestReplicatedPutGetDelete: the replicated KV round-trips values, bumps
// versions across overwrites, settles to full replication, and Delete
// releases every copy.
func TestReplicatedPutGetDelete(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 2})
	if kv.Replicas() != 3 || kv.WriteConcern() != 2 {
		t.Fatalf("config clamped wrong: k=%d w=%d", kv.Replicas(), kv.WriteConcern())
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := kv.Put(key, []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	// Overwrite a few (version bump + old-copy frees on every replica).
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := kv.Put(key, []byte(fmt.Sprintf("v2-%d", i))); err != nil {
			t.Fatalf("overwrite %s: %v", key, err)
		}
	}
	waitConverged(t, kv, 5*time.Second) // W acks returned; stragglers settle
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		want := fmt.Sprintf("v-%d", i)
		if i < 10 {
			want = fmt.Sprintf("v2-%d", i)
		}
		got, ok, err := kv.Get(key)
		if err != nil || !ok {
			t.Fatalf("get %s: %v (found=%v)", key, err, ok)
		}
		if string(got) != want {
			t.Fatalf("get %s = %q, want %q", key, got, want)
		}
	}
	if kv.Len() != 50 {
		t.Fatalf("Len = %d, want 50", kv.Len())
	}
	for i := 0; i < 50; i++ {
		if err := kv.Delete(fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatalf("delete key-%d: %v", i, err)
		}
	}
	// Every replica copy must be gone from every store.
	total := int64(0)
	for i := 0; i < c.Nodes(); i++ {
		s := c.Node(i).Store().Stats()
		total += s.Allocs - s.Frees
	}
	if total != 0 {
		t.Fatalf("%d objects leaked across stores after deleting all keys", total)
	}
}

// TestWriteConcernUnreachable: with W = k and one node dead, Put fails
// with ErrWriteConcern, releases its partial allocations, and leaves the
// previous value fully intact.
func TestWriteConcernUnreachable(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 3})
	if err := kv.Put("stable", []byte("before")); err != nil {
		t.Fatal(err)
	}
	c.Node(1).Kill()
	var lastErr error
	for i := 0; i < pool.FailThreshold+1; i++ {
		lastErr = kv.Put("stable", []byte("after"))
	}
	if !errors.Is(lastErr, ErrWriteConcern) {
		t.Fatalf("put with dead replica = %v, want ErrWriteConcern", lastErr)
	}
	if ne, ok := AsNodeError(lastErr); !ok || ne.Node != 1 {
		t.Fatalf("write-concern error does not name the killed node 1: %v", lastErr)
	}
	got, ok, err := kv.Get("stable")
	if err != nil || !ok || string(got) != "before" {
		t.Fatalf("previous value not intact after failed put: %q %v %v", got, ok, err)
	}
	// Delete tolerates the dead replica once its breaker is open: its
	// record died with the node.
	if !pool.NodeDown(1) {
		t.Fatal("breaker did not open")
	}
	if err := kv.Delete("stable"); err != nil {
		t.Fatalf("delete with a dead replica: %v", err)
	}
}

// TestChaosFailoverKillPrimaryMidWorkload is the headline failover test:
// k=3, W=2 over three nodes, the primary dies mid-workload.
//
//  1. zero acked writes are lost — every Put that returned nil before or
//     during the outage reads back byte-exact;
//  2. reads keep succeeding during the outage, served by backup replicas,
//     with sub-second measured failover latency;
//  3. writes keep acking during the outage (W=2 still reachable);
//  4. after the node rejoins, the re-replicator restores full replication,
//     verified by killing a *different* node and reading everything from
//     what remains.
func TestChaosFailoverKillPrimaryMidWorkload(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour // deterministic downtime window
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 2})

	acked := map[string][]byte{}
	value := func(i int) []byte { return []byte(fmt.Sprintf("value-%d-%d", i, i*i)) }

	// Healthy workload.
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := kv.Put(key, value(i)); err != nil {
			t.Fatalf("healthy put %s: %v", key, err)
		}
		acked[key] = value(i)
	}
	waitConverged(t, kv, 5*time.Second)

	// Kill the primary of a known key mid-workload.
	probe := "key-0"
	victim := kv.ReplicasFor(probe)[0]
	failoversBefore := cuFailovers.Value()
	c.Node(victim).Kill()

	// The first post-kill read of a victim-primary key must fail over to a
	// backup — measure it end to end (includes tripping over the dead
	// primary's redial attempts).
	start := time.Now()
	got, ok, err := kv.Get(probe)
	failoverLatency := time.Since(start)
	if err != nil || !ok || !bytes.Equal(got, acked[probe]) {
		t.Fatalf("read during outage: %q %v %v", got, ok, err)
	}
	if failoverLatency >= time.Second {
		t.Fatalf("failover latency %v, want sub-second", failoverLatency)
	}
	if cuFailovers.Value() == failoversBefore {
		t.Fatal("failover read not counted — served by the dead primary?")
	}

	// Writes keep acking at W=2 through the outage.
	ackedDuringOutage := 0
	for i := 40; i < 90; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := kv.Put(key, value(i)); err != nil {
			continue // unacked: allowed to be lost
		}
		acked[key] = value(i)
		ackedDuringOutage++
	}
	if ackedDuringOutage != 50 {
		t.Fatalf("only %d/50 puts acked during single-node outage with W=2", ackedDuringOutage)
	}
	// The W=2 ack returns before the victim's replica write has finished
	// failing (redial backoff); wait for the straggling outcomes to settle
	// before asserting breaker and degradation state.
	deadline := time.Now().Add(5 * time.Second)
	for !pool.NodeDown(victim) || kv.DegradedKeys() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outage state never settled: down=%v degraded=%d",
				pool.NodeDown(victim), kv.DegradedKeys())
		}
		time.Sleep(time.Millisecond)
	}

	// Every acked write reads back byte-exact during the outage.
	for key, want := range acked {
		got, ok, err := kv.Get(key)
		if err != nil || !ok {
			t.Fatalf("acked key %s unreadable during outage: %v (found=%v)", key, err, ok)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acked key %s corrupted during outage", key)
		}
	}

	// Rejoin (memory intact) and let the re-replicator restore k=3.
	if err := c.Node(victim).Restart(); err != nil {
		t.Fatal(err)
	}
	rep := NewReplicator(kv, ReplicatorConfig{Interval: 5 * time.Millisecond})
	rep.Start()
	defer rep.Stop()
	if err := pool.ProbeNode(victim); err != nil {
		t.Fatalf("probe after restart: %v", err)
	}
	waitConverged(t, kv, 10*time.Second)

	// Full replication restored: kill a *different* node and every key must
	// still read back — including outage keys whose replica on the victim
	// exists only because the re-replicator wrote it.
	other := (victim + 1) % 3
	c.Node(other).Kill()
	for key, want := range acked {
		got, ok, err := kv.Get(key)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %s lost after re-replication (second node down): %v (found=%v)", key, err, ok)
		}
	}
}

// TestChaosReadRepairAfterWipe: a node rejoins EMPTY (wiped store — the
// machine-replacement case). Version-tagged reads detect the loss, Get
// fails over, and read repair plus the replicator re-populate the wiped
// node until it can serve everything alone.
func TestChaosReadRepairAfterWipe(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 2})

	acked := map[string][]byte{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("wipe-%d", i)
		val := []byte(fmt.Sprintf("wv-%d", i))
		if err := kv.Put(key, val); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		acked[key] = val
	}
	waitConverged(t, kv, 5*time.Second)

	const victim = 0
	c.Node(victim).Kill()
	if err := c.Node(victim).Wipe(); err != nil {
		t.Fatal(err)
	}
	// Re-establish the client's channels to the reborn node (the probe is
	// idempotent, so it transparently redials).
	if err := pool.ProbeNode(victim); err != nil {
		t.Fatalf("probe after wipe: %v", err)
	}
	// The index still believes the victim's replicas are live; reads that
	// hit them find the records gone, mark them stale, and fail over.
	for key, want := range acked {
		got, ok, err := kv.Get(key)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %s unreadable after wipe: %v (found=%v)", key, err, ok)
		}
	}

	// Converge: the replicator re-populates the wiped node.
	rep := NewReplicator(kv, ReplicatorConfig{Interval: 5 * time.Millisecond})
	rep.Start()
	defer rep.Stop()
	waitConverged(t, kv, 10*time.Second)

	// The wiped node now holds everything: kill the other two and read all
	// keys from it alone.
	c.Node(1).Kill()
	c.Node(2).Kill()
	for key, want := range acked {
		got, ok, err := kv.Get(key)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %s not served by the repaired node alone: %v (found=%v)", key, err, ok)
		}
	}
	if s := c.Node(victim).Store().Stats(); s.Allocs-s.Frees == 0 {
		t.Fatal("wiped node's store is empty — repair never wrote it")
	}
}

// TestVersionTagCatchesAddressReuse: after a wipe, the empty allocator
// hands out the same virtual addresses again, so another key's record can
// land exactly where a wiped-out key's replica used to live. The version
// tag is what stops a read of the old key from trusting those bytes.
func TestVersionTagCatchesAddressReuse(t *testing.T) {
	c := spinLocal(t, 2)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 2, WriteConcern: 2})

	const victim = 0
	keyA := keyWithPrimary(kv, victim, "reuse-a")
	if err := kv.Put(keyA, []byte("value-A")); err != nil {
		t.Fatal(err)
	}
	kv.mu.Lock()
	oldAddr := kv.entries[keyA].reps[0].addr
	kv.mu.Unlock()

	c.Node(victim).Kill()
	if err := c.Node(victim).Wipe(); err != nil {
		t.Fatal(err)
	}
	if err := pool.ProbeNode(victim); err != nil {
		t.Fatalf("probe after wipe: %v", err)
	}
	// keyB's replica on the wiped node takes the first allocation — the
	// same virtual address keyA's replica had (same size class, same seed).
	keyB := keyWithPrimary(kv, victim, "reuse-b")
	if err := kv.Put(keyB, []byte("value-B")); err != nil {
		t.Fatal(err)
	}
	kv.mu.Lock()
	newAddr := kv.entries[keyB].reps[0].addr
	kv.mu.Unlock()

	staleBefore := cuStaleReads.Value()
	got, ok, err := kv.Get(keyA)
	if err != nil || !ok {
		t.Fatalf("get %s: %v (found=%v)", keyA, err, ok)
	}
	if string(got) != "value-A" {
		t.Fatalf("get %s = %q — read another key's bytes through a recycled address", keyA, got)
	}
	if newAddr == oldAddr && cuStaleReads.Value() == staleBefore {
		t.Fatal("address was recycled but no stale read was detected — version tag not checked")
	}
}

// TestProbeTimeoutBoundsHungNode: a node that accepts connections but
// never answers (hung, not dead) must not hang ProbeNode — the per-probe
// timeout fires, counts as a failure, and the caller returns.
func TestProbeTimeoutBoundsHungNode(t *testing.T) {
	c := spinLocal(t, 2)
	pool := c.Pool()
	pool.FailThreshold = 1
	pool.ProbeTimeout = 50 * time.Millisecond

	const victim = 0
	c.Node(victim).Kill()
	// A black hole on the victim's address: accepts and swallows, so the
	// client's redial succeeds but every call hangs.
	ln, err := net.Listen("tcp", c.Node(victim).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	start := time.Now()
	err = pool.ProbeNode(victim)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrProbeTimeout) {
		t.Fatalf("probe of hung node = %v, want ErrProbeTimeout", err)
	}
	if elapsed > time.Second {
		t.Fatalf("probe took %v — the per-probe timeout did not bound it", elapsed)
	}
	if !pool.NodeDown(victim) {
		t.Fatal("probe timeout did not count as a breaker failure")
	}
}

// TestBreakerCooldownJitter: trip cooldowns spread within ±ProbeJitter and
// are not all identical — no synchronized probe storms.
func TestBreakerCooldownJitter(t *testing.T) {
	p := newPool(nil, nil)
	p.ProbeCooldown = 100 * time.Millisecond
	lo := 80 * time.Millisecond
	hi := 120 * time.Millisecond
	distinct := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		d := p.jitteredCooldown()
		if d < lo || d > hi {
			t.Fatalf("jittered cooldown %v outside [%v, %v]", d, lo, hi)
		}
		distinct[d] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct cooldowns in 200 draws — jitter not applied", len(distinct))
	}
}

// TestMultiGetFailsOverPerKey: with one node dead, a MultiGet spanning all
// nodes still returns every key (dead-node keys fall back to failover
// reads), and node-attributable errors carry the failing node's index.
func TestMultiGetFailsOverPerKey(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 2})

	keys := make([]string, 60)
	want := make([][]byte, 60)
	for i := range keys {
		keys[i] = fmt.Sprintf("mg-%d", i)
		want[i] = []byte(fmt.Sprintf("mgv-%d", i))
		if err := kv.Put(keys[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, kv, 5*time.Second)

	const victim = 2
	c.Node(victim).Kill()
	vals, found, err := kv.MultiGet(keys)
	if err != nil {
		t.Fatalf("MultiGet with one dead node: %v", err)
	}
	for i := range keys {
		if !found[i] || !bytes.Equal(vals[i], want[i]) {
			t.Fatalf("key %s not served through failover MultiGet", keys[i])
		}
	}
}

// TestMultiReadWrapsNodeErrors: a Pool.MultiRead spanning a dead node
// reports that group's failures as *NodeError carrying the node index.
func TestMultiReadWrapsNodeErrors(t *testing.T) {
	c := spinLocal(t, 2)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour

	var gs []*GlobalAddr
	var bufs [][]byte
	for node := 0; node < 2; node++ {
		g, err := pool.AllocOn(node, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Write(&g, []byte("abcd")); err != nil {
			t.Fatal(err)
		}
		gp := g
		gs = append(gs, &gp)
		bufs = append(bufs, make([]byte, 32))
	}
	const victim = 1
	c.Node(victim).Kill()
	// Trip the breaker so the batch path sees the gate's typed error too.
	for i := 0; i < pool.FailThreshold; i++ {
		pool.Read(gs[victim], bufs[victim])
	}
	results, err := pool.MultiRead(gs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("healthy node's read failed: %v", results[0].Err)
	}
	ne, ok := AsNodeError(results[victim].Err)
	if !ok {
		t.Fatalf("dead node's error %v is not a NodeError", results[victim].Err)
	}
	if ne.Node != victim {
		t.Fatalf("NodeError.Node = %d, want %d", ne.Node, victim)
	}
	if !errors.Is(results[victim].Err, ErrNodeDown) {
		t.Fatalf("wrapped error lost ErrNodeDown: %v", results[victim].Err)
	}
}

// TestReplicatorKickOnRecovery: the breaker-recovery hook wakes the
// replicator immediately — convergence after a rejoin does not wait out
// the idle backoff.
func TestReplicatorKickOnRecovery(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 2})
	// Long interval: only the kick can explain a fast repair.
	rep := NewReplicator(kv, ReplicatorConfig{Interval: time.Hour})
	rep.Start()
	defer rep.Stop()

	const victim = 1
	c.Node(victim).Kill()
	acked := 0
	for i := 0; i < 30; i++ {
		if err := kv.Put(fmt.Sprintf("kick-%d", i), []byte("x")); err == nil {
			acked++
		}
	}
	if acked == 0 {
		t.Fatal("no outage put acked")
	}
	// Every acked put fanned out to the dead victim (k = all 3 nodes); wait
	// until each straggling replica write has failed and marked its key
	// degraded, so the single kick-triggered cycle sees all the work.
	deadline := time.Now().Add(5 * time.Second)
	for kv.DegradedKeys() < acked {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d outage keys marked degraded", kv.DegradedKeys(), acked)
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Node(victim).Restart(); err != nil {
		t.Fatal(err)
	}
	if err := pool.ProbeNode(victim); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, kv, 10*time.Second)
}
