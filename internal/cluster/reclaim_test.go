// Tests for grace-period reclamation and spare-slot reuse (reclaim.go).
// Every interleaving here is forced through a hook or a held reader
// registration, not left to timing.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"corm/internal/core"
)

// records snapshots a key's placed replica records.
func records(t *testing.T, kv *KV, key string) []kvReplica {
	t.Helper()
	kv.mu.Lock()
	defer kv.mu.Unlock()
	e := kv.entries[key]
	if e == nil {
		t.Fatalf("key %q not in the index", key)
	}
	return liveRecords(e)
}

// spareAddrs lists every slot on the reclaimer's spare stacks.
func spareAddrs(kv *KV) map[GlobalAddr]bool {
	kv.rc.mu.Lock()
	defer kv.rc.mu.Unlock()
	out := map[GlobalAddr]bool{}
	for _, st := range kv.rc.spares {
		for _, r := range st {
			out[r.addr] = true
		}
	}
	return out
}

// storeStats snapshots every node's store counters.
func storeStats(c *LocalCluster) []core.Stats {
	s := make([]core.Stats, c.Nodes())
	for i := range s {
		s[i] = c.Node(i).Store().Stats()
	}
	return s
}

// outstanding sums allocations not yet freed across the cluster's stores.
func outstanding(c *LocalCluster) int64 {
	var n int64
	for _, s := range storeStats(c) {
		n += s.Allocs - s.Frees
	}
	return n
}

// readTag reads the version tag stored at a replica record.
func readTag(t *testing.T, pool *Pool, g GlobalAddr) uint64 {
	t.Helper()
	size, err := pool.ClassSize(g)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := pool.SmartRead(&g, buf); err != nil {
		t.Fatalf("read %v: %v", g, err)
	}
	return binary.LittleEndian.Uint64(buf)
}

// TestReclaimReaderHoldsRecords: while a reader registered before an
// overwrite is still registered, the replaced records are neither freed
// nor reused, and they still hold the old value; once the reader exits,
// the next retirement stocks them as spares.
func TestReclaimReaderHoldsRecords(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 3})
	if err := kv.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	old := records(t, kv, "k")
	before := storeStats(c)

	epoch := kv.rc.enter()
	for i := 2; i <= 6; i++ {
		if err := kv.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		spares := spareAddrs(kv)
		for _, r := range records(t, kv, "k") {
			for _, o := range old {
				if r.addr == o.addr {
					t.Fatalf("put %d reused %v while a reader could hold it", i, o.addr)
				}
			}
		}
		for _, o := range old {
			if spares[o.addr] {
				t.Fatalf("record %v stocked as a spare while a reader could hold it", o.addr)
			}
			if got, want := readTag(t, c.Pool(), o.addr), kv.recordTag("k", 1); got != want {
				t.Fatalf("record %v overwritten under a registered reader: tag %#x, want %#x", o.addr, got, want)
			}
		}
	}
	for i, s := range storeStats(c) {
		if s.Frees != before[i].Frees {
			t.Fatalf("node %d freed %d records under a registered reader", i, s.Frees-before[i].Frees)
		}
	}

	kv.rc.exit(epoch)
	if err := kv.Put("k", []byte("v7")); err != nil {
		t.Fatal(err)
	}
	spares := spareAddrs(kv)
	for _, o := range old {
		if !spares[o.addr] {
			t.Fatalf("record %v not stocked after the reader exited", o.addr)
		}
	}
}

// TestReclaimGetRacesPut forces a Get to take its snapshot, then runs two
// overwrites — the second would reuse the first one's retired records if
// they were released under the reader — and, in the second case, frees the
// replaced records by address the way Put used to, before the Get reads. The Get must serve
// a value without error, and the evidence about the replaced entry must
// not implicate any node: on a fault-free run the suspicion counter stays
// at zero.
func TestReclaimGetRacesPut(t *testing.T) {
	for _, freeUnderReader := range []bool{false, true} {
		t.Run(fmt.Sprintf("freeUnderReader=%v", freeUnderReader), func(t *testing.T) {
			c := spinLocal(t, 3)
			pool := c.Pool()
			kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 3})
			if err := kv.Put("k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			fired := false
			kv.afterSnapshot = func(key string) {
				if fired {
					return
				}
				fired = true
				old := records(t, kv, key)
				for _, v := range []string{"v2", "v3"} {
					if err := kv.Put(key, []byte(v)); err != nil {
						t.Errorf("racing put: %v", err)
					}
				}
				if freeUnderReader {
					for _, r := range old {
						g := r.addr
						if err := pool.Free(&g); err != nil {
							t.Errorf("free %v: %v", g, err)
						}
					}
				}
			}
			suspicions := cuNodeSuspicions.Value()
			v, ok, err := kv.Get("k")
			if !fired {
				t.Fatal("hook never ran")
			}
			if err != nil || !ok || (string(v) != "v1" && string(v) != "v3") {
				t.Fatalf("get racing a put: %q found=%v err=%v", v, ok, err)
			}
			if !freeUnderReader && string(v) != "v1" {
				t.Fatalf("get served %q, want the snapshot's v1 (its records are retired, not freed)", v)
			}
			if d := cuNodeSuspicions.Value() - suspicions; d != 0 {
				t.Fatalf("%d node suspicions from a replaced entry", d)
			}
			if n := kv.DegradedKeys(); n != 0 {
				t.Fatalf("%d degraded keys on a fault-free run", n)
			}
		})
	}
}

// TestReclaimNoSuspicionsConcurrent: a fault-free concurrent
// Get/Put/Delete mix never suspects a node.
func TestReclaimNoSuspicionsConcurrent(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 2})
	suspicions := cuNodeSuspicions.Value()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k%d", i%8)
				var err error
				switch i % 5 {
				case 0:
					err = kv.Put(key, []byte(fmt.Sprintf("g%d-%d", g, i)))
				case 1:
					err = kv.Delete(key)
				default:
					_, _, err = kv.Get(key)
				}
				if err != nil {
					t.Errorf("g%d op %d on %s: %v", g, i, key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if d := cuNodeSuspicions.Value() - suspicions; d != 0 {
		t.Fatalf("%d node suspicions on a fault-free run", d)
	}
}

// TestReclaimChurnHoldsObjectCount: under concurrent Put/Get churn at k=3
// W=2, overwrites hold no record beyond the index, the spare stock and
// limbo. Once the churn stops and the stragglers and background frees are
// done, the stores' live objects are exactly keys × 3 + spares + limbo,
// so memory that grows under churn is holes in blocks, not leaked records.
func TestReclaimChurnHoldsObjectCount(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 2})
	const keys = 500
	val := make([]byte, 128)
	for i := 0; i < keys; i++ {
		if err := kv.Put(fmt.Sprintf("k%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for time.Now().Before(deadline) {
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				var err error
				if rng.Intn(5) == 0 {
					err = kv.Put(key, val)
				} else {
					_, _, err = kv.Get(key)
				}
				if err != nil {
					t.Errorf("g%d %s: %v", g, key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	kv.rc.waitIdle()
	kv.rc.mu.Lock()
	held := len(kv.rc.limbo[0]) + len(kv.rc.limbo[1])
	for _, st := range kv.rc.spares {
		held += len(st)
	}
	kv.rc.mu.Unlock()
	if got, want := outstanding(c), int64(keys*3+held); got != want {
		t.Fatalf("%d live objects, want %d keys × 3 + %d spares and limbo", got, keys, held)
	}
}

// TestReclaimDeleteRetriesMerge: Delete's frees meet a merge. A free that
// meets ErrCompacting is retried, and one still blocked after the bounded
// retries waits for the next release pass instead of being dropped.
func TestReclaimDeleteRetriesMerge(t *testing.T) {
	for _, blocked := range []int{freeAttempts - 2, freeAttempts + 2} {
		t.Run(fmt.Sprintf("blocked=%d", blocked), func(t *testing.T) {
			c := spinLocal(t, 3)
			kv := NewKV(c.Pool())
			for _, k := range []string{"a", "b"} {
				if err := kv.Put(k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			target := records(t, kv, "a")[0].addr
			var mu sync.Mutex
			hits := 0
			kv.rc.merging = func(g GlobalAddr) bool {
				mu.Lock()
				defer mu.Unlock()
				if g != target || hits >= blocked {
					return false
				}
				hits++
				return true
			}
			if err := kv.Delete("a"); err != nil {
				t.Fatalf("delete under a merge: %v", err)
			}
			if hits != min(blocked, freeAttempts) {
				t.Fatalf("free met the merge %d times, want %d", hits, min(blocked, freeAttempts))
			}
			if blocked > freeAttempts {
				if n := outstanding(c); n != 2 {
					t.Fatalf("%d records outstanding with the free still blocked, want 2", n)
				}
			}
			if err := kv.Delete("b"); err != nil {
				t.Fatal(err)
			}
			if n := outstanding(c); n != 0 {
				t.Fatalf("%d records leaked after deleting every key", n)
			}
		})
	}
}

// TestSpareSteadyStateOverwrite: once the reclaimer holds spares, an
// overwrite makes exactly k backend calls — one write per replica, no
// alloc and no free — and a replica still pending at the ack schedules no
// repair.
func TestSpareSteadyStateOverwrite(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 3})
	for i := 1; i <= 2; i++ {
		if err := kv.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := storeStats(c)
	if err := kv.Put("k", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	for i, s := range storeStats(c) {
		b := before[i]
		if s.Allocs != b.Allocs || s.Frees != b.Frees || s.Reads != b.Reads || s.Writes != b.Writes+1 {
			t.Fatalf("node %d: allocs %+d frees %+d reads %+d writes %+d, want one write",
				i, s.Allocs-b.Allocs, s.Frees-b.Frees, s.Reads-b.Reads, s.Writes-b.Writes)
		}
	}

	w2 := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 2})
	repairs := cuReadRepairTriggers.Value()
	for i := 0; i < 50; i++ {
		if err := w2.Put("p", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := cuReadRepairTriggers.Value() - repairs; d != 0 {
		t.Fatalf("%d repairs scheduled by fault-free W=2 overwrites", d)
	}
}

// TestSpareCompactingFallsBack: a spare whose block a merge holds is given
// back to the reclaimer, the replica falls back to a fresh allocation, and
// the Put succeeds.
func TestSpareCompactingFallsBack(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 3})
	if err := kv.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	busy := map[GlobalAddr]bool{}
	for _, r := range records(t, kv, "k") {
		busy[r.addr] = true
	}
	if err := kv.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	kv.rc.merging = func(g GlobalAddr) bool { return busy[g] }
	before := storeStats(c)
	if err := kv.Put("k", []byte("v3")); err != nil {
		t.Fatalf("put over a spare mid-merge: %v", err)
	}
	for _, r := range records(t, kv, "k") {
		if busy[r.addr] {
			t.Fatalf("replica placed in spare %v its merge holds", r.addr)
		}
	}
	for i, s := range storeStats(c) {
		if s.Allocs != before[i].Allocs+1 {
			t.Fatalf("node %d: %d allocations, want one fresh fallback", i, s.Allocs-before[i].Allocs)
		}
	}
	spares := spareAddrs(kv)
	for g := range busy {
		if !spares[g] {
			t.Fatalf("spare %v not given back to the reclaimer", g)
		}
	}
	if v, ok, err := kv.Get("k"); err != nil || !ok || string(v) != "v3" {
		t.Fatalf("get after fallback: %q %v %v", v, ok, err)
	}
}

// TestSpareStackBounded: retirements held back by a reader pile up in
// limbo; releasing them stocks at most spareCap spares per (node, class)
// and frees the rest.
func TestSpareStackBounded(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewKV(c.Pool())
	const keys = 6 * spareCap // about twice the bound per node
	for i := 0; i < keys; i++ {
		if err := kv.Put(fmt.Sprintf("k%d", i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	epoch := kv.rc.enter()
	for i := 0; i < keys; i++ {
		if err := kv.Put(fmt.Sprintf("k%d", i), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	kv.rc.exit(epoch)
	kv.rc.retire() // one release pass
	kv.rc.mu.Lock()
	stocked, full := 0, false
	for k, st := range kv.rc.spares {
		if len(st) > spareCap {
			kv.rc.mu.Unlock()
			t.Fatalf("spare stack %v holds %d, bound %d", k, len(st), spareCap)
		}
		stocked += len(st)
		full = full || len(st) == spareCap
	}
	kv.rc.mu.Unlock()
	if !full {
		t.Fatal("no spare stack reached its bound: nothing overflowed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for outstanding(c) != int64(keys+stocked) {
		if time.Now().After(deadline) {
			t.Fatalf("%d records outstanding, want %d live + %d spares", outstanding(c), keys, stocked)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpareDroppedAfterWipe: a node dies (its breaker trips), comes back
// wiped, and its rebuilt store hands the old addresses to new records.
// The spares stocked before the outage must never be written, so no other
// key's record is overwritten.
func TestSpareDroppedAfterWipe(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 2})
	const victim = 1
	const n = 16
	for round := 0; round < 2; round++ { // the second round stocks spares
		for i := 0; i < n; i++ {
			if err := kv.Put(fmt.Sprintf("old%d", i), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitConverged(t, kv, 5*time.Second)
	kv.rc.mu.Lock()
	stocked := 0
	for k, st := range kv.rc.spares {
		if k.node == victim {
			stocked += len(st)
		}
	}
	kv.rc.mu.Unlock()
	if stocked == 0 {
		t.Fatal("no spares on the victim before the outage")
	}

	c.Node(victim).Kill()
	tripBreaker(t, pool, victim)
	if err := c.Node(victim).Wipe(); err != nil {
		t.Fatal(err)
	}
	if err := pool.ProbeNode(victim); err != nil {
		t.Fatalf("probe after wipe: %v", err)
	}
	// Another KV over the same pool (no spares of its own) takes the
	// rebuilt store's addresses first; then the old keys are overwritten,
	// when the victim's pre-outage spares would alias the new records.
	other := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 2})
	for i := 0; i < n; i++ {
		if err := other.Put(fmt.Sprintf("new%d", i), []byte("fresh")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := kv.Put(fmt.Sprintf("old%d", i), []byte("r2")); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, other, 5*time.Second)
	waitConverged(t, kv, 5*time.Second)
	for i := 0; i < n; i++ {
		for _, ck := range []struct {
			kv  *KV
			key string
		}{{other, fmt.Sprintf("new%d", i)}, {kv, fmt.Sprintf("old%d", i)}} {
			ck.kv.mu.Lock()
			e := ck.kv.entries[ck.key]
			version := e.version
			reps := liveRecords(e)
			ck.kv.mu.Unlock()
			for _, r := range reps {
				if got, want := readTag(t, pool, r.addr), ck.kv.recordTag(ck.key, version); got != want {
					t.Fatalf("%s replica on node %d holds tag %#x, want %#x: overwritten", ck.key, r.addr.Node, got, want)
				}
			}
		}
	}
}

// TestReclaimIntactAfterBreakerTrip: a node's breaker trips and the node
// comes back with its store intact (an outage, not a wipe), so records and
// spares from before the trip belong to an older incarnation. They must
// not leak: overwriting and then deleting every key leaves nothing
// allocated on any store.
func TestReclaimIntactAfterBreakerTrip(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 2})
	const victim = 1
	const n = 16
	put := func(round int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := kv.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
		waitConverged(t, kv, 5*time.Second)
	}
	put(0)
	put(1) // stocks spares
	inc := pool.incarnation(victim)

	c.Node(victim).Kill()
	tripBreaker(t, pool, victim)
	if err := c.Node(victim).Restart(); err != nil {
		t.Fatal(err)
	}
	if err := pool.ProbeNode(victim); err != nil {
		t.Fatalf("probe after restart: %v", err)
	}
	if pool.incarnation(victim) == inc {
		t.Fatal("breaker trip did not start a new incarnation")
	}
	put(2)
	put(3)
	for i := 0; i < n; i++ {
		if err := kv.Delete(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < c.Nodes(); i++ {
		for {
			s := c.Node(i).Store().Stats()
			if s.Allocs-s.Frees == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d leaked %d records across a breaker trip", i, s.Allocs-s.Frees)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestReclaimGetRacesMultiPut: a Get takes its snapshot, then a batched
// overwrite replaces the key. The replaced record is retired, not freed,
// so the Get serves the snapshot's value, unreplicated or replicated.
func TestReclaimGetRacesMultiPut(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			c := spinLocal(t, 3)
			kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: k})
			if err := kv.Put("A", []byte("A-v1")); err != nil {
				t.Fatal(err)
			}
			fired := false
			kv.afterSnapshot = func(key string) {
				if fired {
					return
				}
				fired = true
				errs, err := kv.MultiPut([]string{"B", "A"}, [][]byte{[]byte("B-v1"), []byte("A-v2")})
				if err != nil {
					t.Errorf("racing multiput: %v", err)
					return
				}
				for i, e := range errs {
					if e != nil {
						t.Errorf("racing multiput key %d: %v", i, e)
					}
				}
			}
			v, ok, err := kv.Get("A")
			if !fired {
				t.Fatal("hook never ran")
			}
			if err != nil || !ok || string(v) != "A-v1" {
				t.Fatalf("get racing a multiput: %q found=%v err=%v, want the snapshot's A-v1", v, ok, err)
			}
			if v, ok, err := kv.Get("A"); err != nil || !ok || string(v) != "A-v2" {
				t.Fatalf("get after the multiput: %q found=%v err=%v, want A-v2", v, ok, err)
			}
		})
	}
}

// TestReclaimRepairKeepsReissuedID: a rebuilt store reissues object IDs, so
// a stale replica's old pointer can carry the ID of the copy repair just
// wrote into the same block. The tag-verifying read before the retire
// corrects the old pointer onto that copy; retiring it would stock the
// live copy as a spare for another key to overwrite.
func TestReclaimRepairKeepsReissuedID(t *testing.T) {
	c := spinLocal(t, 2)
	pool := c.Pool()
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 2, WriteConcern: 2})
	if err := kv.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	var cur kvReplica
	for _, r := range records(t, kv, "k") {
		if r.addr.Node == 0 {
			cur = r
		}
	}
	// A neighbour in cur's block, and an old pointer to the neighbour's
	// slot that carries cur's ID.
	g, err := pool.AllocOn(0, versionTagBytes+len("v1"))
	if err != nil {
		t.Fatal(err)
	}
	id := cur.addr.Addr.ID()
	if g.Addr.ID() == id {
		t.Fatal("neighbour drew cur's ID: the old pointer would not need correcting")
	}
	old := cur
	old.addr.Addr = core.MakeAddr(g.Addr.VAddr(), id, g.Addr.RKey(), g.Addr.Class())
	probe := old.addr
	if !pool.holdsTag(&probe, kv.recordTag("k", 1)) || probe.Addr.VAddr() != cur.addr.Addr.VAddr() {
		t.Fatalf("old pointer %v resolved to %v, want cur's slot %v", old.addr, probe, cur.addr)
	}

	kv.retireIfOurs("k", 1, old, cur)
	kv.rc.mu.Lock()
	limbo := len(kv.rc.limbo[0]) + len(kv.rc.limbo[1])
	kv.rc.mu.Unlock()
	if spareAddrs(kv)[probe] || spareAddrs(kv)[cur.addr] || limbo != 0 {
		t.Fatalf("live copy %v retired through an old pointer with its ID", cur.addr)
	}
	if v, ok, err := kv.Get("k"); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get after the retire check: %q found=%v err=%v", v, ok, err)
	}
}

// TestReclaimFoldAfterRepair: between a Get's snapshot and its read, a
// node suspicion and a repair replace the primary's record X with a new
// copy Y and retire X. The Get, registered as a reader, still reads X; its
// pointer fold must not put X back into the index over Y. Deleting the key
// then frees every record.
func TestReclaimFoldAfterRepair(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 3})
	if err := kv.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	primary := records(t, kv, "k")[0]
	var repaired GlobalAddr
	fired := false
	kv.afterSnapshot = func(key string) {
		if fired {
			return
		}
		fired = true
		kv.suspectNode(primary.addr.Node)
		if n, err := kv.RepairKey(key); n != 1 || err != nil {
			t.Errorf("repair: %d restored, %v", n, err)
		}
		repaired = records(t, kv, key)[0].addr
	}
	if v, ok, err := kv.Get("k"); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get across a repair: %q found=%v err=%v", v, ok, err)
	}
	if !fired {
		t.Fatal("hook never ran")
	}
	if repaired == primary.addr {
		t.Fatal("repair reused the primary's record")
	}
	if got := records(t, kv, "k")[0].addr; got != repaired {
		t.Fatalf("index holds %v after the get, want the repaired copy %v", got, repaired)
	}
	if err := kv.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if n := outstanding(c); n != 0 {
		t.Fatalf("%d records outstanding after deleting the only key", n)
	}
}
