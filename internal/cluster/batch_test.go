package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"corm/internal/metrics"
)

// TestPoolMultiReadAcrossNodes: one MultiRead over objects scattered on
// every node returns all payloads in input order, one round trip per node.
func TestPoolMultiReadAcrossNodes(t *testing.T) {
	pool, _ := spinCluster(t, 3)
	const n = 18
	gs := make([]*GlobalAddr, n)
	want := make([][]byte, n)
	for i := 0; i < n; i++ {
		g, err := pool.AllocOn(i%3, 64)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, 64)
		if err := pool.Write(&g, want[i]); err != nil {
			t.Fatal(err)
		}
		gg := g
		gs[i] = &gg
	}
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	results, err := pool.MultiRead(gs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("sub %d: %v", i, r.Err)
		}
		if !bytes.Equal(bufs[i], want[i]) {
			t.Fatalf("sub %d: payload mismatch", i)
		}
	}
	// A bogus node among valid ones fails only its own sub-ops.
	gs[4] = &GlobalAddr{Node: 9}
	results, err = pool.MultiRead(gs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if results[4].Err == nil {
		t.Fatal("read from bogus node succeeded")
	}
	if results[3].Err != nil || results[5].Err != nil {
		t.Fatalf("siblings poisoned: %v %v", results[3].Err, results[5].Err)
	}
}

// TestPoolMultiAllocFree: batched alloc/free keeps the pool's per-node
// load accounting consistent with single-op Alloc/Free.
func TestPoolMultiAllocFree(t *testing.T) {
	pool, stores := spinCluster(t, 2)
	sizes := make([]int, 10)
	for i := range sizes {
		sizes[i] = 64
	}
	rs, err := pool.MultiAllocOn(1, sizes)
	if err != nil {
		t.Fatal(err)
	}
	gs := make([]*GlobalAddr, len(rs))
	for i := range rs {
		if rs[i].Err != nil {
			t.Fatalf("alloc %d: %v", i, rs[i].Err)
		}
		gs[i] = &GlobalAddr{Node: 1, Addr: rs[i].Addr}
	}
	if got := stores[1].Stats().Allocs; got != 10 {
		t.Fatalf("node 1 allocs = %d, want 10", got)
	}
	frees, err := pool.MultiFree(gs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range frees {
		if r.Err != nil {
			t.Fatalf("free %d: %v", i, r.Err)
		}
	}
	// Least-loaded placement sees node 1 back at zero: the next single
	// alloc may land anywhere, proving the ledger went down with the frees.
	pool.mu.Lock()
	load := pool.allocs[1]
	pool.mu.Unlock()
	if load != 0 {
		t.Fatalf("node 1 load after MultiFree = %d, want 0", load)
	}
}

// TestKVMultiPutGet: scatter-gather put/get across rendezvous nodes with
// missing keys, overwrites, and duplicate keys in one batch.
func TestKVMultiPutGet(t *testing.T) {
	pool, _ := spinCluster(t, 3)
	kv := NewKV(pool)
	const n = 30
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%d", i)
		vals[i] = []byte(fmt.Sprintf("value-%d", i))
	}
	errs, err := kv.MultiPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("put %d: %v", i, e)
		}
	}
	if kv.Len() != n {
		t.Fatalf("len = %d, want %d", kv.Len(), n)
	}

	// Get a mix of present and absent keys, out of put order.
	ask := []string{"user:7", "nope", "user:0", "user:29", "also-nope", "user:7"}
	got, found, err := kv.MultiGet(ask)
	if err != nil {
		t.Fatal(err)
	}
	wantFound := []bool{true, false, true, true, false, true}
	for i := range ask {
		if found[i] != wantFound[i] {
			t.Fatalf("key %q: found=%v, want %v", ask[i], found[i], wantFound[i])
		}
	}
	for _, i := range []int{0, 5} {
		if string(got[i]) != "value-7" {
			t.Fatalf("key %q = %q", ask[i], got[i])
		}
	}
	if string(got[2]) != "value-0" || string(got[3]) != "value-29" {
		t.Fatalf("out-of-order reassembly: %q %q", got[2], got[3])
	}

	// Batched overwrite with a duplicate key: last occurrence wins and both
	// occurrences share its outcome.
	errs, err = kv.MultiPut(
		[]string{"user:7", "user:8", "user:7"},
		[][]byte{[]byte("stale"), []byte("fresh-8"), []byte("fresh-7")},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("overwrite %d: %v", i, e)
		}
	}
	v, ok, _ := kv.Get("user:7")
	if !ok || string(v) != "fresh-7" {
		t.Fatalf("after duplicate put: %q", v)
	}
	if v, ok, _ := kv.Get("user:8"); !ok || string(v) != "fresh-8" {
		t.Fatalf("sibling overwrite: %q", v)
	}
	// Overwrites retired the old objects rather than leaking them: they are
	// stocked as spare slots, so total live allocations equal the distinct
	// keys plus the spare stock.
	var live int64
	pool.mu.Lock()
	for _, a := range pool.allocs {
		live += a
	}
	pool.mu.Unlock()
	stocked := int64(len(spareAddrs(kv)))
	if live != n+stocked {
		t.Fatalf("live allocations = %d, want %d keys + %d spares (overwrite leaked)", live, n, stocked)
	}
}

// TestKVMultiGetAfterCompaction: compaction moves objects between Put and
// MultiGet; every key still resolves and the corrected pointers are
// repaired into the index (a second MultiGet reads clean).
func TestKVMultiGetAfterCompaction(t *testing.T) {
	pool, stores := spinCluster(t, 2)
	kv := NewKV(pool)
	const n = 1024
	keys := make([]string, 0, n)
	valFor := func(i int) []byte { return bytes.Repeat([]byte{byte(i%250 + 1)}, 64) }
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := kv.Put(key, valFor(i)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	// Fragment: delete 15 of every 16 keys, then compact both nodes.
	var kept []string
	var keptIdx []int
	for i, key := range keys {
		if i%16 == 0 {
			kept = append(kept, key)
			keptIdx = append(keptIdx, i)
			continue
		}
		if err := kv.Delete(key); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	for _, s := range stores {
		moved += s.CompactAll(0, nil).ObjectsMoved
	}
	if moved == 0 {
		t.Fatal("compaction moved nothing — test exercised nothing")
	}
	for pass := 0; pass < 2; pass++ {
		vals, found, err := kv.MultiGet(kept)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for i, key := range kept {
			if !found[i] {
				t.Fatalf("pass %d: key %q lost after compaction", pass, key)
			}
			if !bytes.Equal(vals[i], valFor(keptIdx[i])) {
				t.Fatalf("pass %d: key %q payload mismatch", pass, key)
			}
		}
	}
}

// TestKVGetRaceWithCompaction: many goroutines Get the same keys while
// compaction relocates their objects. Under -race this proves Get never
// mutates a shared kvEntry outside kv.mu (corrections go through repair).
func TestKVGetRaceWithCompaction(t *testing.T) {
	pool, stores := spinCluster(t, 2)
	kv := NewKV(pool)
	const hot = 8
	keys := make([]string, hot)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot%d", i)
		if err := kv.Put(keys[i], []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Churn allocations so every compaction round has something to move.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("churn%d", i%64)
			kv.Put(key, bytes.Repeat([]byte{byte(i)}, 64))
			if i%2 == 1 {
				kv.Delete(key)
			}
			i++
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % hot
				v, ok, err := kv.Get(keys[k])
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if !ok || string(v) != fmt.Sprintf("val%d", k) {
					t.Errorf("g%d i%d: got %q ok=%v", g, i, v, ok)
					return
				}
				if i%5 == 0 {
					// Batched reads race the same entries.
					if _, _, err := kv.MultiGet(keys); err != nil {
						t.Errorf("g%d i%d multiget: %v", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	compactDone := make(chan struct{})
	go func() {
		defer close(compactDone)
		for i := 0; i < 40; i++ {
			for _, s := range stores {
				s.CompactAll(0, nil)
			}
		}
	}()
	wg.Wait()
	close(stop)
	churn.Wait()
	<-compactDone
}

// rpcRequests counts the frames every server in the process executed.
var rpcRequests = metrics.Default().Counter("corm_rpc_requests_total", "")

// batchOf builds n distinct keys and their values.
func batchOf(prefix string, n int) ([]string, [][]byte) {
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%d", prefix, i)
		vals[i] = []byte(fmt.Sprintf("%s-val-%d", prefix, i))
	}
	return keys, vals
}

// mustMultiPut runs a MultiPut that every key must ack.
func mustMultiPut(t *testing.T, kv *KV, keys []string, vals [][]byte) {
	t.Helper()
	errs, err := kv.MultiPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("put %s: %v", keys[i], e)
		}
	}
}

// TestMultiPutFramesPerNode: a fault-free replicated MultiPut of new keys
// costs two frames per node, one alloc and one write, however many keys
// it carries.
func TestMultiPutFramesPerNode(t *testing.T) {
	c := spinLocal(t, 3)
	kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: 2})
	keys, vals := batchOf("frames", 256)
	before := rpcRequests.Value()
	mustMultiPut(t, kv, keys, vals)
	if d := rpcRequests.Value() - before; d > 2*3 {
		t.Fatalf("MultiPut of %d keys on 3 nodes cost %d frames, want at most 6", len(keys), d)
	}
	if n := kv.DegradedKeys(); n != 0 {
		t.Fatalf("%d degraded keys after a fault-free MultiPut", n)
	}
	got, found, err := kv.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("key %s: got %q found=%v, want %q", keys[i], got[i], found[i], vals[i])
		}
	}
}

// TestMultiPutNodeDown: with one node of three down behind an open
// breaker, every key of a W=2 MultiPut acks and its replica on the dead
// node is stale; once the node is back, the replicator restores every key
// to full replication.
func TestMultiPutNodeDown(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 2})
	const victim = 2
	c.Node(victim).Kill()
	tripBreaker(t, pool, victim)

	keys, vals := batchOf("down", 64)
	mustMultiPut(t, kv, keys, vals)
	kv.mu.Lock()
	for _, key := range keys {
		for _, r := range kv.entries[key].reps {
			if want := r.addr.Node != victim; (r.state == repLive) != want {
				kv.mu.Unlock()
				t.Fatalf("%s replica on node %d: state %d, want live=%v", key, r.addr.Node, r.state, want)
			}
		}
	}
	kv.mu.Unlock()
	if n := kv.DegradedKeys(); n != len(keys) {
		t.Fatalf("%d degraded keys, want %d", n, len(keys))
	}

	rep := NewReplicator(kv, ReplicatorConfig{Interval: time.Millisecond})
	rep.Start()
	defer rep.Stop()
	if err := c.Node(victim).Restart(); err != nil {
		t.Fatal(err)
	}
	if err := pool.ProbeNode(victim); err != nil {
		t.Fatalf("probe after restart: %v", err)
	}
	waitConverged(t, kv, 5*time.Second)
	for i, key := range keys {
		kv.mu.Lock()
		e := kv.entries[key]
		version, reps := e.version, liveRecords(e)
		kv.mu.Unlock()
		if len(reps) != 3 {
			t.Fatalf("%s has %d placed replicas after repair, want 3", key, len(reps))
		}
		for _, r := range reps {
			if got, want := readTag(t, pool, r.addr), kv.recordTag(key, version); got != want {
				t.Fatalf("%s replica on node %d holds tag %#x, want %#x", key, r.addr.Node, got, want)
			}
		}
		if v, ok, err := kv.Get(key); err != nil || !ok || !bytes.Equal(v, vals[i]) {
			t.Fatalf("get %s after repair: %q found=%v err=%v", key, v, ok, err)
		}
	}
}

// TestMultiPutWriteConcernMiss: with two nodes of three down, every key of
// a W=2 MultiPut fails with ErrWriteConcern, the previous entries still
// read back, and deleting every key leaves the live node holding nothing.
func TestMultiPutWriteConcernMiss(t *testing.T) {
	c := spinLocal(t, 3)
	pool := c.Pool()
	pool.ProbeCooldown = time.Hour
	kv := NewReplicatedKV(pool, ReplicationConfig{Replicas: 3, WriteConcern: 2})
	keys, old := batchOf("wc", 64)
	mustMultiPut(t, kv, keys, old)
	for _, victim := range []int{1, 2} {
		c.Node(victim).Kill()
		tripBreaker(t, pool, victim)
	}

	_, vals := batchOf("wc-new", len(keys))
	errs, err := kv.MultiPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if !errors.Is(e, ErrWriteConcern) {
			t.Fatalf("put %s with one live node: %v, want ErrWriteConcern", keys[i], e)
		}
	}
	for i, key := range keys {
		if v, ok, err := kv.Get(key); err != nil || !ok || !bytes.Equal(v, old[i]) {
			t.Fatalf("get %s after a failed MultiPut: %q found=%v err=%v, want %q", key, v, ok, err, old[i])
		}
	}
	for _, key := range keys {
		if err := kv.Delete(key); err != nil {
			t.Fatalf("delete %s: %v", key, err)
		}
	}
	if s := c.Node(0).Store().Stats(); s.Allocs != s.Frees {
		t.Fatalf("live node: %d allocs, %d frees after deleting every key", s.Allocs, s.Frees)
	}
}

// TestMultiPutConcurrent: MultiPuts overlapping Puts, Gets and Deletes on
// the same keys never fail, never suspect a node, and leave nothing
// allocated once every key is deleted. At W=2 a Put acks with its third
// write still in flight; the Delete that empties the index waits for it.
func TestMultiPutConcurrent(t *testing.T) {
	for _, w := range []int{3, 2} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			c := spinLocal(t, 3)
			kv := NewReplicatedKV(c.Pool(), ReplicationConfig{Replicas: 3, WriteConcern: w})
			suspicions := cuNodeSuspicions.Value()
			keys, _ := batchOf("conc", 8)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						key := keys[(g+i)%len(keys)]
						var err error
						switch i % 4 {
						case 0:
							vals := make([][]byte, len(keys))
							for j := range vals {
								vals[j] = []byte(fmt.Sprintf("g%d-%d-%d", g, i, j))
							}
							var errs []error
							if errs, err = kv.MultiPut(keys, vals); err == nil {
								err = errors.Join(errs...)
							}
						case 1:
							err = kv.Put(key, []byte(fmt.Sprintf("g%d-%d", g, i)))
						case 2:
							err = kv.Delete(key)
						default:
							_, _, err = kv.Get(key)
						}
						if err != nil {
							t.Errorf("g%d op %d: %v", g, i, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if d := cuNodeSuspicions.Value() - suspicions; d != 0 {
				t.Fatalf("%d node suspicions on a fault-free run", d)
			}
			for _, key := range keys {
				if err := kv.Delete(key); err != nil {
					t.Fatal(err)
				}
			}
			if n := outstanding(c); n != 0 {
				t.Fatalf("%d records outstanding after deleting every key", n)
			}
		})
	}
}
