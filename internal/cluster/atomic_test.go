package cluster

import (
	"encoding/binary"
	"errors"
	"testing"

	"corm/internal/core"
)

func le64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// TestPoolAtomics: the pushdown wrappers route to the owning node with
// the same pointer correction and error folding as Read/Write.
func TestPoolAtomics(t *testing.T) {
	c := spinLocal(t, 2)
	pool := c.Pool()

	g, err := pool.AllocOn(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Write(&g, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}

	old, err := pool.FetchAdd(&g, 0, 7)
	if err != nil || old != 0 {
		t.Fatalf("fetchadd: %d %v", old, err)
	}
	if err := pool.CAS(&g, 0, le64(7), le64(40)); err != nil {
		t.Fatalf("cas: %v", err)
	}
	if err := pool.CAS(&g, 0, le64(7), le64(1)); !errors.Is(err, core.ErrConflict) {
		t.Fatalf("stale cas: %v", err)
	}

	fresh, err := pool.AllocOn(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := pool.PutIfAbsent(&fresh, []byte("init"))
	if err != nil {
		t.Fatalf("if-absent: %v", err)
	}
	if _, err := pool.PutIfAbsent(&fresh, []byte("again")); !errors.Is(err, core.ErrConflict) {
		t.Fatalf("second if-absent: %v", err)
	}
	if _, err := pool.PutIf(&fresh, ver, []byte("next")); err != nil {
		t.Fatalf("putif: %v", err)
	}
	if obs, err := pool.PutIf(&fresh, ver, []byte("stale")); !errors.Is(err, core.ErrConflict) || obs != ver+1 {
		t.Fatalf("stale putif: obs=%d err=%v", obs, err)
	}

	if size, err := pool.ClassSize(g); err != nil || size < 16 {
		t.Fatalf("class size: %d %v", size, err)
	}
	if s := g.String(); s == "" {
		t.Fatal("empty GlobalAddr string")
	}
	if err := pool.ReleasePtr(&g); err != nil {
		t.Fatalf("release ptr: %v", err)
	}
}

// TestKVFetchAddUnreplicated: one copy per key — a FetchAdd is one
// pushdown round trip to the rendezvous owner.
func TestKVFetchAddUnreplicated(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewKV(c.Pool())

	if _, found, err := kv.FetchAdd("absent", 0, 1); found || err != nil {
		t.Fatalf("missing key: found=%v err=%v", found, err)
	}

	if err := kv.Put("ctr", le64(100)); err != nil {
		t.Fatal(err)
	}
	old, found, err := kv.FetchAdd("ctr", 0, 5)
	if err != nil || !found || old != 100 {
		t.Fatalf("fetchadd: old=%d found=%v err=%v", old, found, err)
	}
	val, _, err := kv.Get("ctr")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(val); v != 105 {
		t.Fatalf("counter = %d, want 105", v)
	}
}

// TestKVFetchAddReplicated: the delta funnels through the primary and
// propagates to every replica — so the counter survives losing the
// primary outright.
func TestKVFetchAddReplicated(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 3})

	// 16-byte value: the counter lives at value offset 8, which the KV
	// layer must shift past the stored version tag.
	key := keyWithPrimary(kv, 1, "rep-ctr")
	val := make([]byte, 16)
	binary.LittleEndian.PutUint64(val[8:], 1000)
	if err := kv.Put(key, val); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		old, found, err := kv.FetchAdd(key, 8, 3)
		if err != nil || !found {
			t.Fatalf("add %d: found=%v err=%v", i, found, err)
		}
		if want := uint64(1000 + i*3); old != want {
			t.Fatalf("add %d: pre-add %d, want %d", i, old, want)
		}
	}

	// W=3 means every replica applied every delta before each call acked;
	// killing the primary must lose nothing.
	c.Node(1).Kill()
	got, found, err := kv.Get(key)
	if err != nil || !found {
		t.Fatalf("get after primary loss: found=%v err=%v", found, err)
	}
	if v := binary.LittleEndian.Uint64(got[8:]); v != 1030 {
		t.Fatalf("counter after failover = %d, want 1030", v)
	}

	// The surviving replicas keep serving adds: the next live replica in
	// rank order becomes the linearization point.
	old, found, err := kv.FetchAdd(key, 8, 1)
	if err != nil && !errors.Is(err, ErrWriteConcern) {
		t.Fatalf("post-failover add: %v", err)
	}
	if !found || old != 1030 {
		t.Fatalf("post-failover add: old=%d found=%v", old, found)
	}
}

// TestKVFetchAddWriteConcernMiss: with W equal to the replica count, a
// dead secondary fails the ack bar — but the primary's delta stands and
// the error still carries the exact pre-add value.
func TestKVFetchAddWriteConcernMiss(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 3})

	key := keyWithPrimary(kv, 0, "wc-ctr")
	if err := kv.Put(key, le64(50)); err != nil {
		t.Fatal(err)
	}

	// Kill a non-primary replica so the primary apply succeeds but the
	// fan-out cannot reach W.
	victim := kv.ReplicasFor(key)[2]
	c.Node(victim).Kill()

	old, found, err := kv.FetchAdd(key, 0, 5)
	if !errors.Is(err, ErrWriteConcern) {
		t.Fatalf("want ErrWriteConcern, got %v", err)
	}
	if ne, ok := AsNodeError(err); !ok || ne.Node != victim {
		t.Fatalf("write-concern error does not name the killed node %d: %v", victim, err)
	}
	if !found || old != 50 {
		t.Fatalf("old=%d found=%v", old, found)
	}

	// The applied delta is authoritative: reads observe it.
	val, _, err := kv.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(val); v != 55 {
		t.Fatalf("counter = %d, want 55", v)
	}
}
