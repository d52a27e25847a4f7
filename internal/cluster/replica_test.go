// Tests for the replicated write path: Put's posted replica writes, the
// batched put path, and the replication services.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"corm/internal/core"
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

// TestPutPostsSpareWrites: once spares are stocked, every replica write
// of a k=3 W=3 overwrite is posted from the Put's own goroutine — 20
// overwrites run no blocking leg — and each Put starts no goroutine.
func TestPutPostsSpareWrites(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 3})
	// Values keep one size: a record that changes size needs a fresh slot.
	for i := 0; i < 2; i++ { // the second Put stocks the first one's records as spares
		if err := kv.Put("k", []byte(fmt.Sprintf("warm%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	b0 := cuBlockingLegs.Value()
	for i := 0; i < 20; i++ {
		if err := kv.Put("k", []byte(fmt.Sprintf("over%02d", i))); err != nil {
			t.Fatal(err)
		}
		if n := kv.rc.bg.Load(); n != 0 {
			t.Fatalf("a W=k Put left %d stragglers", n)
		}
	}
	if d := cuBlockingLegs.Value() - b0; d != 0 {
		t.Fatalf("20 overwrites into stocked spares ran %d blocking legs, want 0", d)
	}
}

// wireControl is a HarnessOptions.Dialer that fails one node's wire the
// ways a network does: hang its connections (writes vanish and nothing
// comes back, but the sockets stay up), cut them, or hold its dials until
// released.
type wireControl struct {
	mu    sync.Mutex
	conns map[string][]net.Conn
	hung  map[string]bool
	held  map[string]chan struct{}
}

func newWireControl() *wireControl {
	return &wireControl{conns: map[string][]net.Conn{}, hung: map[string]bool{}, held: map[string]chan struct{}{}}
}

// controlledConn is one dialed connection under a wireControl.
type controlledConn struct {
	net.Conn
	wc   *wireControl
	addr string
}

func (c *controlledConn) Write(b []byte) (int, error) {
	c.wc.mu.Lock()
	hung := c.wc.hung[c.addr]
	c.wc.mu.Unlock()
	if hung {
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// Dial dials addr once its dials are no longer held.
func (wc *wireControl) Dial(network, addr string) (net.Conn, error) {
	wc.mu.Lock()
	held := wc.held[addr]
	wc.mu.Unlock()
	if held != nil {
		<-held
	}
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.conns[addr] = append(wc.conns[addr], nc)
	return &controlledConn{Conn: nc, wc: wc, addr: addr}, nil
}

// hang makes every write to addr vanish from now on.
func (wc *wireControl) hang(addr string) {
	wc.mu.Lock()
	wc.hung[addr] = true
	wc.mu.Unlock()
}

// cut closes every connection dialed to addr so far.
func (wc *wireControl) cut(addr string) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	for _, nc := range wc.conns[addr] {
		nc.Close()
	}
}

// hold makes dials to addr wait until release, which t's cleanup also runs.
func (wc *wireControl) hold(t *testing.T, addr string) (release func()) {
	ch := make(chan struct{})
	wc.mu.Lock()
	wc.held[addr] = ch
	wc.mu.Unlock()
	var once sync.Once
	release = func() {
		once.Do(func() {
			wc.mu.Lock()
			delete(wc.held, addr)
			wc.mu.Unlock()
			close(ch)
		})
	}
	t.Cleanup(release)
	return release
}

// spinControlled is spinLocal over TCP wires that a wireControl dials.
func spinControlled(t *testing.T, n int) (*LocalCluster, *wireControl) {
	t.Helper()
	wc := newWireControl()
	c, err := SpinLocalOptions(n, 1, HarnessOptions{Dialer: wc.Dial})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, wc
}

// stockSpares runs two Puts of "k" through each KV, so that every replica
// holds a spare for the next one, and waits out their stragglers.
func stockSpares(t *testing.T, kvs ...*KV) {
	t.Helper()
	for i := 0; i < 2; i++ { // the second Put stocks the first one's records as spares
		for _, kv := range kvs {
			if err := kv.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, kv := range kvs {
		waitFor(t, 5*time.Second, "warm-up stragglers to finish", func() bool { return kv.rc.bg.Load() == 0 })
	}
}

// waitFor polls cond every millisecond until it holds, failing t after d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
	}
}

// putWithin runs kv.Put("k", v) and fails t unless it returns within d.
func putWithin(t *testing.T, kv *KV, v string, d time.Duration) (time.Duration, error) {
	t.Helper()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- kv.Put("k", []byte(v)) }()
	select {
	case err := <-done:
		return time.Since(start), err
	case <-time.After(d):
		t.Fatalf("Put did not return within %v", d)
		return 0, nil
	}
}

// replicaState reports the state of kv's entry for "k" on node.
func replicaState(kv *KV, node int) uint8 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	for _, r := range kv.entries["k"].reps {
		if r.addr.Node == node {
			return r.state
		}
	}
	return repStale
}

// TestPutPostedWriteExpiresOnHungReplica: a replica whose connection stays
// up but never answers holds a posted write open until the fan-out
// deadline, the connections' CallTimeout (2 s in the harness). At W=2 the
// Put acks without the replica, and the deadline expires the straggler in
// the background: the replica is marked stale, the node's breaker counts
// the failure, and the KV's background count returns to 0. The expiry
// broke the channel, so a W=3 Put's write there runs as a blocking leg,
// whose redial reaches the hung node again: the Put fails after about
// CallTimeout with ErrWriteConcern naming the hung node.
func TestPutPostedWriteExpiresOnHungReplica(t *testing.T) {
	const callTimeout = 2 * time.Second
	c, wc := spinControlled(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour
	kv3 := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 3})
	kv2 := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 2})
	stockSpares(t, kv3, kv2)
	const victim = 2
	wc.hang(c.Node(victim).Addr())
	fails := func() int {
		pool.mu.Lock()
		defer pool.mu.Unlock()
		return pool.health[victim].consecFails
	}

	before, b0 := fails(), cuBlockingLegs.Value()
	took, err := putWithin(t, kv2, "v2", callTimeout+2*time.Second)
	if err != nil {
		t.Fatalf("W=2 Put with one hung replica: %v", err)
	}
	if took > callTimeout/2 {
		t.Fatalf("W=2 Put took %v: it waited for the hung replica", took)
	}
	if d := cuBlockingLegs.Value() - b0; d != 0 {
		t.Fatalf("the W=2 Put ran %d blocking legs, want its spare writes posted", d)
	}
	waitFor(t, callTimeout+time.Second-took, "the fan-out deadline to expire the straggler", func() bool {
		return kv2.rc.bg.Load() == 0 && replicaState(kv2, victim) == repStale && fails() > before
	})

	took, err = putWithin(t, kv3, "v2", 2*callTimeout+2*time.Second)
	if !errors.Is(err, ErrWriteConcern) {
		t.Fatalf("W=3 Put with a hung replica = %v, want ErrWriteConcern", err)
	}
	if ne, ok := AsNodeError(err); !ok || ne.Node != victim {
		t.Fatalf("write-concern error does not name the hung node %d: %v", victim, err)
	}
	if took < callTimeout/2 || took > callTimeout+time.Second {
		t.Fatalf("W=3 Put failed after %v, want about the %v call timeout", took, callTimeout)
	}
}

// TestPutAcksPastHeldRedial: a replica whose connection broke and whose
// redial hangs holds up only its own write. The Put never dials: that
// replica's write runs as a blocking leg, whose redial waits on its own
// goroutine while a W=2 Put acks on the other two. Once the dial goes
// through, the straggler lands: the replica turns live and the breaker
// has counted nothing.
func TestPutAcksPastHeldRedial(t *testing.T) {
	c, wc := spinControlled(t, 3)
	pool := c.Pool()
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 2})
	stockSpares(t, kv)
	const victim = 1
	addr := c.Node(victim).Addr()
	release := wc.hold(t, addr)
	wc.cut(addr)
	waitFor(t, 5*time.Second, "the cut to break the channel", func() bool { return !pool.nodes[victim].CanPost() })

	b0 := cuBlockingLegs.Value()
	took, err := putWithin(t, kv, "v2", time.Second)
	if err != nil {
		t.Fatalf("W=2 Put past a held redial: %v", err)
	}
	if d := cuBlockingLegs.Value() - b0; d != 1 {
		t.Fatalf("the Put ran %d blocking legs, want 1 (the held replica's)", d)
	}
	if n := kv.rc.bg.Load(); n != 1 || replicaState(kv, victim) != repPending {
		t.Fatalf("after the ack (%v): %d stragglers, replica state %v; want the held one pending", took, n, replicaState(kv, victim))
	}
	release()
	waitFor(t, 5*time.Second, "the straggler to land", func() bool {
		return kv.rc.bg.Load() == 0 && replicaState(kv, victim) == repLive
	})
	pool.mu.Lock()
	fails := pool.health[victim].consecFails
	pool.mu.Unlock()
	if fails != 0 {
		t.Fatalf("breaker counted %d failures for a redial that went through", fails)
	}
	if got, ok, err := kv.Get("k"); err != nil || !ok || string(got) != "v2" {
		t.Fatalf("Get after the straggler: %q %v %v", got, ok, err)
	}
}

// TestPutPostedWriteAdoptsCorrection: a posted write into a spare whose
// block compaction merged comes back with the server's pointer correction,
// and the entry records the corrected address, not the spare's old one.
func TestPutPostedWriteAdoptsCorrection(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 3})
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	value := func(round, i int) []byte { return []byte(fmt.Sprintf("v%d-%02d", round, i)) }
	size := len(kv.encodeRecord(0, value(0, 0)))
	// Round 0's records sit among fillers of their class, so that once
	// round 1 stocks them as spares and the fillers go, their blocks are
	// sparse enough for compaction to merge.
	var fillers []GlobalAddr
	for i := 0; i < spareCap; i++ {
		if err := kv.Put(key(i), value(0, i)); err != nil {
			t.Fatal(err)
		}
		for node := 0; node < c.Nodes(); node++ {
			for j := 0; j < 7; j++ {
				g, err := pool.AllocOn(node, size)
				if err != nil {
					t.Fatal(err)
				}
				fillers = append(fillers, g)
			}
		}
	}
	for i := 0; i < spareCap; i++ {
		if err := kv.Put(key(i), value(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range fillers {
		if err := pool.Free(&fillers[i]); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	for i := 0; i < c.Nodes(); i++ {
		s := c.Node(i).Store()
		for class := range s.Allocator().Config().Classes {
			moved += s.CompactClass(core.CompactOptions{Class: class, Leader: 0, MaxOccupancy: core.Occ(1.0)}).ObjectsMoved
		}
	}
	if moved == 0 {
		t.Fatal("compaction moved nothing: the test exercised nothing")
	}
	type slot struct {
		node  int
		vaddr uint64
	}
	spares := map[slot]bool{}
	kv.rc.mu.Lock()
	for _, stack := range kv.rc.spares {
		for _, r := range stack {
			spares[slot{r.addr.Node, r.addr.Addr.VAddr()}] = true
		}
	}
	kv.rc.mu.Unlock()

	b0 := cuBlockingLegs.Value()
	for i := 0; i < spareCap; i++ {
		if err := kv.Put(key(i), value(2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if d := cuBlockingLegs.Value() - b0; d != 0 {
		t.Fatalf("round 2 ran %d blocking legs, want every write posted into a spare", d)
	}
	corrected := 0
	buf := make([]byte, 64)
	for i := 0; i < spareCap; i++ {
		kv.mu.Lock()
		reps := slices.Clone(kv.entries[key(i)].reps)
		kv.mu.Unlock()
		for _, r := range reps {
			if !spares[slot{r.addr.Node, r.addr.Addr.VAddr()}] {
				corrected++
			}
			// A read through a copy folds in any correction still due.
			g := r.addr
			if _, err := pool.Read(&g, buf); err != nil {
				t.Fatal(err)
			}
			if g.Addr.VAddr() != r.addr.Addr.VAddr() {
				t.Fatalf("key %d replica on node %d: entry holds %v, the server corrects it to %v", i, r.addr.Node, r.addr, g)
			}
		}
	}
	if corrected == 0 {
		t.Fatal("no posted write met a moved spare: the test exercised nothing")
	}
	t.Logf("compaction moved %d objects; %d of %d posted writes came back corrected", moved, corrected, 3*spareCap)
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
