package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"
)

// Replica states. A replica is live (readable, at the entry's version),
// pending (its write is still in flight after the W-ack returned), or
// stale (known missing or divergent — the node restarted empty, missed
// the write, or served an old version; the repair path re-populates it).
const (
	repLive uint8 = iota
	repPending
	repStale
)

// versionTagBytes prefixes every replicated record: a little-endian
// 64-bit per-entry version carried inside the stored payload, so replica
// divergence is detectable from the record itself — a replica that
// rejoined with old data answers reads with the wrong tag and is repaired
// instead of trusted. Unreplicated KVs (Replicas=1) keep the bare
// encoding.
const versionTagBytes = 8

// kvReplica is one key's placement on one node of its replica set.
type kvReplica struct {
	addr GlobalAddr // addr.Node is the replica's node; Addr may be zero while stale
	// classSize caches the record's size-class capacity so reads never
	// pay a per-read class lookup; 0 means unknown (look up once).
	classSize int
	state     uint8
	inc       uint64 // the node's incarnation when the record was allocated
	tag       uint64 // the version tag last written into the slot; 0 if untagged
}

// readable reports whether reads may use the replica: live, its record
// placed.
func (r kvReplica) readable() bool { return r.state == repLive && !r.addr.Addr.IsZero() }

// kvEntry is the client-side index record for one key: the ordered
// replica set (rendezvous rank order — reps[0] is the primary) plus the
// entry's current version.
type kvEntry struct {
	size    int
	version uint64
	reps    []kvReplica

	// degraded marks an entry below full replication; degradedAt feeds
	// the replication-lag histogram when it is healed.
	degraded   bool
	degradedAt time.Time
	// repairing serializes repair work per entry so one slow node cannot
	// fan a repair storm out of every failed read.
	repairing bool
}

// ReplicationConfig parameterizes a replicated KV.
type ReplicationConfig struct {
	// Replicas is k: every key lives on its top-k rendezvous nodes
	// (clamped to the pool size; minimum 1).
	Replicas int
	// WriteConcern is W: Put acks after W replica writes succeed
	// (default and maximum Replicas, minimum 1). The remaining writes
	// complete in the background; replicas they miss are marked stale
	// and healed by read repair or the Replicator.
	WriteConcern int
}

// KV maps string keys onto pool objects with rendezvous hashing,
// optionally replicated across each key's top-k rendezvous nodes.
type KV struct {
	pool *Pool
	k, w int

	mu      sync.Mutex
	entries map[string]*kvEntry
	// versions issues one monotonic version per key across its whole
	// lifetime (survives Delete), so records from any two Puts — even
	// overlapping ones — never share a tag.
	versions map[string]uint64
	// degraded indexes entries below full replication, so the Replicator
	// scans only what needs work.
	degraded map[string]*kvEntry

	// rc retires replaced records after a reader grace period and hands
	// their slots to later Puts (reclaim.go).
	rc *reclaimer
	// afterSnapshot, set by tests, runs in get between the snapshot and
	// the first replica read.
	afterSnapshot func(key string)
}

// NewKV builds an unreplicated keyed store over the pool (one copy per
// key, on its rendezvous node — the pre-replication behavior).
func NewKV(pool *Pool) *KV {
	return NewReplicatedKV(pool, ReplicationConfig{Replicas: 1})
}

// NewReplicatedKV builds a keyed store that replicates every key across
// its top-k rendezvous nodes with the given write concern.
func NewReplicatedKV(pool *Pool, cfg ReplicationConfig) *KV {
	k := min(max(cfg.Replicas, 1), pool.Nodes())
	w := cfg.WriteConcern
	if w < 1 || w > k {
		w = k
	}
	return &KV{
		pool:     pool,
		k:        k,
		w:        w,
		entries:  make(map[string]*kvEntry),
		versions: make(map[string]uint64),
		degraded: make(map[string]*kvEntry),
		rc:       newReclaimer(pool),
	}
}

// Replicas reports k, the configured replication factor (after clamping).
func (kv *KV) Replicas() int { return kv.k }

// WriteConcern reports W, the number of replica acks a Put waits for.
func (kv *KV) WriteConcern() int { return kv.w }

// score is the rendezvous (highest-random-weight) hash of (node, key).
func (kv *KV) score(key string, node int) uint64 {
	// Node id first, so its bytes diffuse through the whole key; a
	// final avalanche step removes FNV's weak tail mixing. The bytes are
	// "<node>/<key>", built on the stack for short keys.
	var buf [64]byte
	h := fnv.New64a()
	h.Write(append(append(strconv.AppendInt(buf[:0], int64(node), 10), '/'), key...))
	return mix64(h.Sum64())
}

// NodeFor returns the rendezvous-hash owner node for a key: the node
// whose hash(key, node) is highest, its replica set's primary. Adding or
// removing a node relocates only the keys it wins or loses.
func (kv *KV) NodeFor(key string) int { return kv.ReplicasFor(key)[0] }

// ReplicasFor returns the key's ordered replica set: its top-k rendezvous
// nodes, highest score first. The ordering is stable under membership
// change the same way rendezvous hashing is — a node leaving promotes the
// next-ranked node per key.
func (kv *KV) ReplicasFor(key string) []int {
	n, k := kv.pool.Nodes(), kv.k // NewReplicatedKV clamped k to n
	type ranked struct {
		node  int
		score uint64
	}
	top := make([]ranked, 0, k) // insertion-sorted, highest first
	for i := 0; i < n; i++ {
		s := kv.score(key, i)
		pos := len(top)
		for pos > 0 && s > top[pos-1].score {
			pos--
		}
		if pos >= k {
			continue
		}
		if len(top) < k {
			top = append(top, ranked{})
		}
		copy(top[pos+1:], top[pos:len(top)-1])
		top[pos] = ranked{node: i, score: s}
	}
	nodes := make([]int, len(top))
	for i, r := range top {
		nodes[i] = r.node
	}
	return nodes
}

// mix64 is a finalizing avalanche (splitmix64's) for rendezvous scores.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// tagBytes is the per-record version-tag overhead (0 when unreplicated).
func (kv *KV) tagBytes() int {
	if kv.k > 1 {
		return versionTagBytes
	}
	return 0
}

// recordTag is the 64-bit tag stored ahead of a replicated record: the
// entry's version namespaced by a hash of its key. Namespacing matters
// because a wiped node's fresh allocator hands out the same virtual
// addresses again, so a stale pointer can resolve to a record of a
// *different* key whose version number happens to match; mixing the key
// into the tag makes that cross-key ABA detectable too. Unreplicated
// records carry no tag: 0.
func (kv *KV) recordTag(key string, version uint64) uint64 {
	if kv.tagBytes() == 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64() + version)
}

// encodeRecord builds the stored record for a value at a tag.
func (kv *KV) encodeRecord(tag uint64, value []byte) []byte {
	if kv.k == 1 {
		return value
	}
	rec := make([]byte, versionTagBytes+len(value))
	binary.LittleEndian.PutUint64(rec, tag)
	copy(rec[versionTagBytes:], value)
	return rec
}

// readRecord reads the whole record a replica's slot holds — a buffer of
// the slot's class capacity — and checks its version tag (0: none). It
// returns the record and the read's corrected pointer; a record with
// another tag fails with ErrStaleReplica.
func (p *Pool) readRecord(r kvReplica, tag uint64) ([]byte, GlobalAddr, error) {
	rec, err := p.recordBuf(r)
	if err != nil {
		return nil, r.addr, err
	}
	g := r.addr
	if _, err := p.SmartRead(&g, rec); err != nil {
		return nil, g, err
	}
	return rec, g, checkTag(rec, g, tag)
}

// recordBuf returns a buffer of the replica slot's class capacity, looked
// up once when the replica does not cache it.
func (p *Pool) recordBuf(r kvReplica) ([]byte, error) {
	size := r.classSize
	if size == 0 {
		var err error
		if size, err = p.ClassSize(r.addr); err != nil {
			return nil, err
		}
	}
	return make([]byte, size), nil
}

// checkTag fails with ErrStaleReplica unless the record read at g heads
// with tag (0: an untagged record, nothing to check). A replica that
// answers with some other record — an older version of this key, or
// another key entirely through a recycled address — has diverged.
func checkTag(rec []byte, g GlobalAddr, tag uint64) error {
	if tag == 0 {
		return nil
	}
	if v := binary.LittleEndian.Uint64(rec); v != tag {
		return fmt.Errorf("%w: replica on node %d has tag %#x, want %#x", ErrStaleReplica, g.Node, v, tag)
	}
	return nil
}

// nextVersion reserves the next version for a key, under kv.mu. When the
// key's current record has the new one's size, it also reports that
// record's slot class (0 if unknown): the new record fits a spare of it.
func (kv *KV) nextVersion(key string, size int) (version uint64, class int) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.versions[key]++
	if e := kv.entries[key]; e != nil && e.size == size {
		for _, r := range e.reps {
			class = max(class, r.classSize)
		}
	}
	return kv.versions[key], class
}

// --- degraded-entry accounting (all under kv.mu) ---

// noteState re-derives an entry's degraded flag after a replica state
// change, moving the under-replicated gauge and the degraded index, and
// recording the replication lag when an entry heals back to full
// replication.
func (kv *KV) noteState(key string, e *kvEntry) {
	deg := false
	for i := range e.reps {
		if e.reps[i].state != repLive {
			deg = true
			break
		}
	}
	switch {
	case deg && !e.degraded:
		e.degraded = true
		e.degradedAt = time.Now()
		kv.degraded[key] = e
		cuUnderReplicated.Inc()
	case !deg && e.degraded:
		e.degraded = false
		delete(kv.degraded, key)
		cuUnderReplicated.Dec()
		cuReplicationLagNs.Observe(time.Since(e.degradedAt).Nanoseconds())
	}
}

// noteRemoved drops an entry's degraded-index membership when it leaves
// the map (Delete, or replacement by a newer Put).
func (kv *KV) noteRemoved(key string, e *kvEntry) {
	if e != nil && e.degraded {
		delete(kv.degraded, key)
		cuUnderReplicated.Dec()
	}
}

// DegradedKeys reports how many entries are currently below full
// replication (the Replicator's work queue depth).
func (kv *KV) DegradedKeys() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return len(kv.degraded)
}

// degradedSnapshot returns up to limit keys needing repair.
func (kv *KV) degradedSnapshot(limit int) []string {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	keys := make([]string, 0, min(limit, len(kv.degraded)))
	for k := range kv.degraded {
		if len(keys) >= limit {
			break
		}
		keys = append(keys, k)
	}
	return keys
}

// Get fetches a value. Unreplicated, it reads the key's single copy with
// a one-sided read. Replicated, it walks the ordered replica set: the
// primary serves; if the primary's breaker is open, its node faults, or
// its record is missing or carries a stale version tag, the read fails
// over to the next replica — and the replicas that failed are marked for
// read repair.
func (kv *KV) Get(key string) ([]byte, bool, error) {
	return kv.get(key, true)
}

func (kv *KV) get(key string, allowRetry bool) ([]byte, bool, error) {
	defer kv.rc.exit(kv.rc.enter())
	kv.mu.Lock()
	e := kv.entries[key]
	if e == nil {
		kv.mu.Unlock()
		return nil, false, nil
	}
	version, size := e.version, e.size
	reps := make([]kvReplica, len(e.reps)) // not slices.Clone: ~70 ns more per Get
	copy(reps, e.reps)
	kv.mu.Unlock()
	if kv.afterSnapshot != nil {
		kv.afterSnapshot(key)
	}

	tag, want := kv.tagBytes(), kv.recordTag(key, version)
	var start time.Time
	if kv.k > 1 {
		start = time.Now()
	}
	failures := 0
	var lastErr error
	for i, r := range reps {
		if !r.readable() {
			continue
		}
		rec, g, err := kv.pool.readRecord(r, want)
		if err != nil {
			if kv.k == 1 {
				return nil, false, err
			}
			failures++
			lastErr = err
			kv.diverged(key, e, i, version, r.addr.Node, err)
			continue
		}
		kv.foldAddr(key, e, i, r, g, len(rec), version)
		if failures > 0 {
			// Served by a backup after the primary path failed: that is
			// one failover, measured end to end from the Get's start.
			cuFailovers.Inc()
			cuFailoverNs.Observe(time.Since(start).Nanoseconds())
			kv.scheduleRepair(key)
		}
		return rec[tag : tag+size], true, nil
	}

	// No replica served. The entry may have been replaced mid-read by one
	// whose replicas are in better shape: retry once against it.
	if kv.k > 1 && allowRetry {
		kv.mu.Lock()
		changed := kv.entries[key] != e
		kv.mu.Unlock()
		if changed {
			return kv.get(key, false)
		}
	}
	if lastErr == nil { // no replica was readable; k=1 returned its error above
		return nil, false, nil
	}
	kv.scheduleRepair(key)
	return nil, false, fmt.Errorf("%w: key %q (%d replicas): %w", ErrNoReplica, key, len(reps), lastErr)
}

// markStale flags one replica as divergent if the entry is still current,
// and reports whether it was: only evidence about a current entry may
// implicate the node.
func (kv *KV) markStale(key string, e *kvEntry, i int, version uint64) bool {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	current := kv.entries[key] == e && e.version == version
	if current && e.reps[i].state == repLive {
		e.reps[i].state = repStale
		kv.noteState(key, e)
	}
	return current
}

// diverged handles the failed read of replica i, on node. A record with
// another tag, or one the node no longer holds (wiped, or it missed the
// write), is divergence, not an outage: a recycled address or a lost
// record means the store was rebuilt. If the entry is still current
// (evidence about a replaced entry says nothing about the node), it marks
// the replica for repair, and the node's whole population too, since a
// rebuilt store lost every record it held. It reports whether the failure
// was divergence.
func (kv *KV) diverged(key string, e *kvEntry, i int, version uint64, node int, err error) bool {
	stale := errors.Is(err, ErrStaleReplica)
	if stale {
		cuStaleReads.Inc()
	}
	if !stale && !isDivergent(err) {
		return false
	}
	if kv.markStale(key, e, i, version) {
		kv.suspectNode(node)
	}
	return true
}

// suspectNode marks every entry's live replica on one node stale. One
// detected divergence is evidence the node's whole store was rebuilt (a
// wiped node misses old records and rejects old rkeys on every key it
// held), so rather than waiting for each key to be read — keys whose
// reads are served by an earlier-ranked replica would never probe the
// wiped copy — one detection queues the node's full population for the
// replicator. A false suspicion (a benign missing-record race) costs one
// verified re-copy per key, never correctness: repair reads from a
// tag-verified live replica before touching the suspect. A suspicion also
// starts a new incarnation of the node, so its spare slots are dropped.
func (kv *KV) suspectNode(node int) {
	cuNodeSuspicions.Inc()
	kv.pool.incs[node].Add(1)
	kv.mu.Lock()
	for key, e := range kv.entries {
		for i := range e.reps {
			if e.reps[i].state == repLive && e.reps[i].addr.Node == node {
				e.reps[i].state = repStale
				kv.noteState(key, e)
			}
		}
	}
	kv.mu.Unlock()
}

// foldAddr folds a corrected pointer g (and a freshly learned class size)
// back into replica i of the index, unless the entry moved on or the
// replica no longer holds from, the snapshot the read started from: a
// repair may have replaced it with a new copy meanwhile, and the read,
// registered as a reader, still reached the retired record. A read that
// needed no correction takes no lock.
func (kv *KV) foldAddr(key string, e *kvEntry, i int, from kvReplica, g GlobalAddr, classSize int, version uint64) {
	if g == from.addr && classSize == from.classSize {
		return
	}
	kv.mu.Lock()
	if kv.entries[key] == e && e.version == version && e.reps[i].state == repLive && e.reps[i].addr == from.addr {
		e.reps[i].addr = g
		e.reps[i].classSize = classSize
	}
	kv.mu.Unlock()
}

// Delete frees a key's object on every replica after the grace period (and,
// when it empties the index, every spare slot). Replicas whose node is down
// (or whose record is already gone) are skipped best-effort: a wiped node
// has nothing to free, and a dead one cannot be reached.
func (kv *KV) Delete(key string) error {
	kv.mu.Lock()
	e := kv.entries[key]
	delete(kv.entries, key)
	kv.noteRemoved(key, e)
	var recs []kvReplica
	if e != nil {
		recs = liveRecords(e)
	}
	empty := len(kv.entries) == 0
	kv.mu.Unlock()
	if e == nil {
		return nil
	}
	return kv.rc.drain(recs, empty)
}

// Len reports the number of keys.
func (kv *KV) Len() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return len(kv.entries)
}
