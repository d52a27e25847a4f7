// Package cluster aggregates multiple CoRM nodes into one logical shared
// memory space — the DSM deployment the paper's introduction motivates
// ("the memory space may consist of hundreds of physical nodes"). Each
// node runs the full CoRM stack (allocator, compaction, RDMA emulation);
// the pool adds placement and a thin keyed facade:
//
//   - Pool: explicit placement. Alloc picks a node (least-allocated),
//     returning a GlobalAddr = (node, 128-bit CoRM pointer). All Table 2
//     operations route to the owning node, so compaction on any node
//     stays invisible to pool users exactly as for a single node.
//   - KV: optional convenience mapping string keys to objects with
//     rendezvous (highest-random-weight) hashing, so adding nodes moves
//     only ~1/n of the keys. With ReplicationConfig{Replicas: k}, every
//     key is stored on its top-k rendezvous nodes: writes fan out in
//     parallel and ack after WriteConcern successes, reads fail over down
//     the ordered replica set, and stale or missing replicas are healed
//     by read repair and the background Replicator.
package cluster

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"corm/internal/client"
	"corm/internal/core"
)

// GlobalAddr locates an object in the cluster: the owning node index plus
// CoRM's 128-bit pointer on that node.
type GlobalAddr struct {
	Node int
	Addr core.Addr
}

func (g GlobalAddr) String() string { return fmt.Sprintf("node%d/%v", g.Node, g.Addr) }

// Pool is a client-side view over several CoRM nodes. Each node carries a
// consecutive-failure circuit breaker (health.go): transport-level faults
// open it, open breakers fail fast with ErrNodeDown and are skipped by
// Alloc, and a half-open probe (after a jittered ProbeCooldown, or an
// explicit ProbeNode) restores nodes that recover.
type Pool struct {
	// FailThreshold and ProbeCooldown tune the per-node breaker; set them
	// before issuing traffic.
	FailThreshold int
	ProbeCooldown time.Duration
	// ProbeJitter spreads each breaker cooldown (and StartProber's
	// cadence) by ±this fraction, so probes across many clients never
	// synchronize into a storm against a recovering node.
	ProbeJitter float64
	// ProbeTimeout bounds how long one ProbeNode call may block on an
	// unresponsive node before counting it as a failure.
	ProbeTimeout time.Duration

	mu        sync.Mutex
	nodes     []*client.Ctx
	labels    []string
	allocs    []int64 // live allocations per node, for least-loaded placement
	health    []nodeHealth
	onRecover func(node int) // invoked (outside mu) when a breaker closes
	// incs numbers each node's incarnations: a breaker trip or a node
	// suspicion starts a new one (the node may be a rebuilt store).
	incs []atomic.Uint64
}

// Dial connects to every node address.
func Dial(addrs []string) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	p := newPool()
	for _, a := range addrs {
		ctx, err := client.CreateCtx(a)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("cluster: dial %s: %w", a, err)
		}
		p.nodes = append(p.nodes, ctx)
		p.labels = append(p.labels, a)
	}
	p.allocs = make([]int64, len(p.nodes))
	p.health = make([]nodeHealth, len(p.nodes))
	p.incs = make([]atomic.Uint64, len(p.nodes))
	return p, nil
}

// NewFromClients builds a pool over existing contexts (in-process tests).
func NewFromClients(ctxs []*client.Ctx) *Pool {
	p := newPool()
	p.nodes = ctxs
	p.labels = make([]string, len(ctxs))
	for i := range p.labels {
		p.labels[i] = fmt.Sprintf("node%d", i)
	}
	p.allocs = make([]int64, len(ctxs))
	p.health = make([]nodeHealth, len(ctxs))
	p.incs = make([]atomic.Uint64, len(ctxs))
	return p
}

// incarnation reports the node's current incarnation number.
func (p *Pool) incarnation(node int) uint64 { return p.incs[node].Load() }

func newPool() *Pool {
	return &Pool{
		FailThreshold: DefaultFailThreshold,
		ProbeCooldown: DefaultProbeCooldown,
		ProbeJitter:   DefaultProbeJitter,
		ProbeTimeout:  DefaultProbeTimeout,
	}
}

// setRecoverHook registers a callback fired whenever a node's breaker
// closes after being open — the Replicator uses it to re-replicate onto a
// rejoined node immediately instead of waiting out its pacing interval.
func (p *Pool) setRecoverHook(f func(node int)) {
	p.mu.Lock()
	p.onRecover = f
	p.mu.Unlock()
}

// Close tears down every connection.
func (p *Pool) Close() {
	for _, n := range p.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// Nodes reports the pool size.
func (p *Pool) Nodes() int { return len(p.nodes) }

// Node exposes one node's client context.
func (p *Pool) Node(i int) *client.Ctx { return p.nodes[i] }

// Alloc places an object on the least-allocated healthy node. Nodes whose
// breaker is open are skipped until their cooldown elapses (then one Alloc
// may probe them); if every node is down, Alloc fails fast.
func (p *Pool) Alloc(size int) (GlobalAddr, error) {
	p.mu.Lock()
	best := -1
	for i := range p.nodes {
		h := &p.health[i]
		if h.open && (h.probing || time.Since(h.openedAt) < p.cooldownOf(h)) {
			continue
		}
		if best == -1 || p.allocs[i] < p.allocs[best] {
			best = i
		}
	}
	if best == -1 {
		p.mu.Unlock()
		return GlobalAddr{}, fmt.Errorf("%w: all %d nodes", ErrNodeDown, len(p.nodes))
	}
	if h := &p.health[best]; h.open {
		h.probing = true // half-open: this Alloc doubles as the probe
	}
	p.allocs[best]++
	p.mu.Unlock()
	addr, err := p.nodes[best].Alloc(size)
	p.observe(best, err)
	if err != nil {
		p.mu.Lock()
		p.allocs[best]--
		p.mu.Unlock()
		return GlobalAddr{}, p.nodeErr(best, err)
	}
	return GlobalAddr{Node: best, Addr: addr}, nil
}

// AllocOn places an object on a specific node.
func (p *Pool) AllocOn(node, size int) (GlobalAddr, error) {
	if node < 0 || node >= len(p.nodes) {
		return GlobalAddr{}, p.errNodeRange(node)
	}
	if err := p.gate(node); err != nil {
		return GlobalAddr{}, err
	}
	addr, err := p.nodes[node].Alloc(size)
	p.observe(node, err)
	if err != nil {
		return GlobalAddr{}, p.nodeErr(node, err)
	}
	p.mu.Lock()
	p.allocs[node]++
	p.mu.Unlock()
	return GlobalAddr{Node: node, Addr: addr}, nil
}

// ctxOf resolves the owning node and passes its circuit breaker: an open
// breaker fails the operation fast with ErrNodeDown.
func (p *Pool) ctxOf(g GlobalAddr) (*client.Ctx, error) {
	if g.Node < 0 || g.Node >= len(p.nodes) {
		return nil, p.errNodeRange(g.Node)
	}
	if err := p.gate(g.Node); err != nil {
		return nil, err
	}
	return p.nodes[g.Node], nil
}

// Write updates an object; the pointer is corrected in place.
func (p *Pool) Write(g *GlobalAddr, payload []byte) error {
	ctx, err := p.ctxOf(*g)
	if err != nil {
		return err
	}
	err = ctx.Write(&g.Addr, payload)
	p.observe(g.Node, err)
	return p.nodeErr(g.Node, err)
}

// Read reads via RPC with transparent correction.
func (p *Pool) Read(g *GlobalAddr, buf []byte) (int, error) {
	ctx, err := p.ctxOf(*g)
	if err != nil {
		return 0, err
	}
	n, err := ctx.Read(&g.Addr, buf)
	p.observe(g.Node, err)
	return n, p.nodeErr(g.Node, err)
}

// SmartRead reads one-sidedly, repairing indirect pointers with ScanRead.
func (p *Pool) SmartRead(g *GlobalAddr, buf []byte) (int, error) {
	ctx, err := p.ctxOf(*g)
	if err != nil {
		return 0, err
	}
	n, err := ctx.SmartRead(&g.Addr, buf)
	p.observe(g.Node, err)
	return n, p.nodeErr(g.Node, err)
}

// Free releases the object.
func (p *Pool) Free(g *GlobalAddr) error {
	ctx, err := p.ctxOf(*g)
	if err != nil {
		return err
	}
	err = ctx.Free(&g.Addr)
	p.observe(g.Node, err)
	if err != nil {
		return p.nodeErr(g.Node, err)
	}
	p.mu.Lock()
	p.allocs[g.Node]--
	p.mu.Unlock()
	return nil
}

// ReleasePtr releases the old virtual address of a corrected pointer.
func (p *Pool) ReleasePtr(g *GlobalAddr) error {
	ctx, err := p.ctxOf(*g)
	if err != nil {
		return err
	}
	err = ctx.ReleasePtr(&g.Addr)
	p.observe(g.Node, err)
	return p.nodeErr(g.Node, err)
}

// ClassSize reports the payload capacity behind a global pointer. It is a
// local lookup (classes are cached at connect time), so it bypasses the
// breaker gate: it must not consume a half-open probe slot.
func (p *Pool) ClassSize(g GlobalAddr) (int, error) {
	if g.Node < 0 || g.Node >= len(p.nodes) {
		return 0, p.errNodeRange(g.Node)
	}
	return p.nodes[g.Node].ClassSize(g.Addr)
}

// --- Keyed facade ---

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
	k := cfg.Replicas
	if k < 1 {
		k = 1
	}
	if n := pool.Nodes(); k > n {
		k = n
	}
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
	h := fnv.New64a()
	// Node id first, so its bytes diffuse through the whole key; a
	// final avalanche step removes FNV's weak tail mixing.
	fmt.Fprintf(h, "%d/%s", node, key)
	return mix64(h.Sum64())
}

// NodeFor returns the rendezvous-hash owner node for a key: the node
// whose hash(key, node) is highest. Adding or removing a node relocates
// only the keys it wins or loses.
func (kv *KV) NodeFor(key string) int {
	best, bestScore := 0, uint64(0)
	for i := 0; i < kv.pool.Nodes(); i++ {
		if s := kv.score(key, i); i == 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// ReplicasFor returns the key's ordered replica set: its top-k rendezvous
// nodes, highest score first. ReplicasFor(key)[0] == NodeFor(key); the
// ordering is stable under membership change the same way rendezvous
// hashing is — a node leaving promotes the next-ranked node per key.
func (kv *KV) ReplicasFor(key string) []int {
	n := kv.pool.Nodes()
	k := kv.k
	if k > n {
		k = n
	}
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
// into the tag makes that cross-key ABA detectable too.
func (kv *KV) recordTag(key string, version uint64) uint64 {
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

// Put stores value under key on its top-k rendezvous nodes (k=1: its
// rendezvous node), writing each replica into a slot nothing else
// references — a spare or a fresh allocation, never the old record in
// place (DESIGN.md §12) — and acks after WriteConcern successes. Writes
// still in flight at ack time finish in the background and fold their
// outcome into the entry; replicas that failed are marked stale for the
// repair paths. If fewer than W writes succeed, the Put fails, its slots
// are retired, and the previous entry stays fully intact.
func (kv *KV) Put(key string, value []byte) error {
	nodes := kv.ReplicasFor(key)
	version, class := kv.nextVersion(key, len(value))
	rec := kv.encodeRecord(kv.recordTag(key, version), value)
	if kv.k > 1 {
		cuReplicatedWrites.Inc()
	}

	// Fan out: one goroutine per replica, each writing its record with one
	// OpWrite round trip (writeAck).
	res := make(chan repOutcome, len(nodes))
	for i, node := range nodes {
		go func(i, node int) {
			r, err := kv.writeReplica(node, class, rec)
			res <- repOutcome{i, r, err}
		}(i, node)
	}

	e := &kvEntry{size: len(value), version: version, reps: make([]kvReplica, len(nodes))}
	for i, node := range nodes {
		e.reps[i] = kvReplica{addr: GlobalAddr{Node: node}, state: repPending}
	}

	// Collect outcomes until W acks, every write resolves, or W becomes
	// unreachable.
	succ, pending := 0, len(nodes)
	var firstErr error
	for pending > 0 && succ < kv.w && succ+pending >= kv.w {
		o := <-res
		pending--
		e.reps[o.i], firstErr = o.rep, cmp.Or(firstErr, o.err)
		if o.err == nil {
			succ++
		}
	}

	if pending > 0 {
		// Counted before the entry can be installed, so a Delete that
		// empties the index waits for the stragglers' slots.
		kv.rc.bg.Add(1)
	}
	installed, err := kv.install(key, e, succ, firstErr)
	if !installed {
		// Write concern missed, or a newer version won the race: retire
		// every slot this Put wrote, stragglers included; the previous
		// entry stays intact.
		kv.rc.retire(liveRecords(e)...)
		e = nil
	}
	// Stragglers keep running; their outcomes fold into the entry (or are
	// retired if the entry moved on).
	kv.drainStragglers(key, e, version, res, pending)
	return err
}

// install is the commit step Put and MultiPut share, once succ of e's
// replicas hold its record. Below the write concern it fails with
// ErrWriteConcern. A concurrent Put may have installed a higher version
// already; then this write lost the overlap race. Otherwise e replaces the
// key's entry, the previous entry's records are retired (readers of the
// old snapshot may hold them), and replicas already stale are queued for
// repair. It reports whether e was installed; if not, the caller retires
// e's slots.
func (kv *KV) install(key string, e *kvEntry, succ int, firstErr error) (bool, error) {
	if succ < kv.w {
		cuWriteConcernMisses.Inc()
		return false, fmt.Errorf("%w: %d/%d acks (replicas=%d): %w",
			ErrWriteConcern, succ, kv.w, kv.k, firstErr)
	}
	kv.mu.Lock()
	prev := kv.entries[key]
	if prev != nil && prev.version > e.version {
		kv.mu.Unlock()
		return false, nil
	}
	kv.noteRemoved(key, prev)
	kv.entries[key] = e
	kv.noteState(key, e)
	var prevReps []kvReplica
	if prev != nil {
		prevReps = liveRecords(prev)
	}
	stale := false
	for i := range e.reps {
		stale = stale || e.reps[i].state == repStale
	}
	kv.mu.Unlock()

	kv.rc.retire(prevReps...)
	if stale {
		// A replica write already failed: queue its repair now rather than
		// waiting for a read to trip over it or for the replicator's next
		// paced cycle. If the node is still down, the repair no-ops and the
		// key stays on the degraded index. A replica still pending needs no
		// repair; its straggler reports in.
		kv.scheduleRepair(key)
	}
	return true, nil
}

// repOutcome is one replica write's result during a Put fan-out.
type repOutcome struct {
	i   int
	rep kvReplica
	err error
}

// writeReplica writes rec into a slot on node: a spare of the given class
// when the reclaimer holds one and it fits, else a fresh allocation. A
// spare whose write fails goes back to the reclaimer (its slot still holds
// its old record unless the write landed unacknowledged) and the replica
// falls back to a fresh allocation. On failure it returns the replica
// marked stale.
func (kv *KV) writeReplica(node, class int, rec []byte) (kvReplica, error) {
	tag := kv.tagOf(rec)
	stale := kvReplica{addr: GlobalAddr{Node: node}, state: repStale}
	if r, ok := kv.rc.take(node, class, len(rec)); ok {
		var err error = core.ErrCompacting
		if kv.rc.merging == nil || !kv.rc.merging(r.addr) {
			err = kv.pool.writeAck(&r.addr, rec, false)
		}
		if err == nil {
			r.state, r.tag = repLive, tag
			return r, nil
		}
		kv.rc.retire(r)
	}
	inc := kv.pool.incarnation(node)
	g, err := kv.pool.AllocOn(node, len(rec))
	if err != nil {
		return stale, err
	}
	classSize, _ := kv.pool.ClassSize(g)
	r := kvReplica{addr: g, classSize: classSize, state: repLive, inc: inc, tag: tag}
	if err := kv.pool.writeAck(&r.addr, rec, true); err != nil {
		kv.rc.retire(r)
		return stale, err
	}
	return r, nil
}

// tagOf reads the version tag heading an encoded record (0: untagged).
func (kv *KV) tagOf(rec []byte) (tag uint64) {
	if kv.tagBytes() > 0 {
		tag = binary.LittleEndian.Uint64(rec)
	}
	return tag
}

// liveRecords collects every placed replica record of an entry, under kv.mu
// (callers hold it or own the entry exclusively).
func liveRecords(e *kvEntry) []kvReplica {
	var rs []kvReplica
	for _, r := range e.reps {
		if !r.addr.Addr.IsZero() {
			rs = append(rs, r)
		}
	}
	return rs
}

// drainStragglers folds post-ack write outcomes into the entry: a late
// success makes its replica live; a late failure marks it stale and
// schedules its repair — the ack already happened, so nothing else will
// notice the miss until a read trips over it or the replicator's paced
// cycle finds it, and a node that rejoined between the ack and the
// straggler's failure would otherwise wait out the full interval. If the
// entry was replaced meanwhile, late slots are retired instead.
// Runs in the background when pending > 0; the caller counts it in
// kv.rc.bg, and it ends the count.
func (kv *KV) drainStragglers(key string, e *kvEntry, version uint64, res <-chan repOutcome, pending int) {
	if pending == 0 {
		return
	}
	go func() {
		defer kv.rc.bg.Add(-1)
		for ; pending > 0; pending-- {
			o := <-res
			kv.mu.Lock()
			current := e != nil && kv.entries[key] == e && e.version == version
			if current {
				if o.err != nil {
					e.reps[o.i].state = repStale
				} else {
					e.reps[o.i] = o.rep
				}
				kv.noteState(key, e)
			}
			kv.mu.Unlock()
			if current && o.err != nil {
				kv.scheduleRepair(key)
			}
			if !current && o.err == nil {
				kv.rc.retire(o.rep)
			}
		}
	}()
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
	version := e.version
	size := e.size
	reps := make([]kvReplica, len(e.reps))
	copy(reps, e.reps)
	kv.mu.Unlock()
	if kv.afterSnapshot != nil {
		kv.afterSnapshot(key)
	}

	tag := kv.tagBytes()
	var start time.Time
	var wantTag uint64
	if kv.k > 1 {
		start = time.Now()
		wantTag = kv.recordTag(key, version)
	}
	failures := 0
	var lastErr error
	for i := range reps {
		r := reps[i]
		if r.state != repLive || r.addr.Addr.IsZero() {
			continue
		}
		classSize := r.classSize
		if classSize == 0 {
			var err error
			if classSize, err = kv.pool.ClassSize(r.addr); err != nil {
				failures++
				lastErr = err
				continue
			}
		}
		buf := make([]byte, classSize)
		g := r.addr
		if _, err := kv.pool.SmartRead(&g, buf); err != nil {
			failures++
			if kv.k == 1 {
				return nil, false, err
			}
			if isDivergent(err) {
				// The node restarted without this record (wiped, or it
				// missed the write): divergence, not an outage. Mark for
				// repair — this key and, since a rebuilt store lost every
				// record it held, the node's whole population — and fail
				// over. Evidence about a replaced entry says nothing
				// about the node.
				if kv.markStale(key, e, i, version) {
					kv.suspectNode(r.addr.Node)
				}
			}
			lastErr = err
			continue
		}
		if tag > 0 {
			if v := binary.LittleEndian.Uint64(buf); v != wantTag {
				// The replica answered with some other record — an older
				// version of this key, or another key entirely through a
				// recycled address. Repairable divergence, and recycled
				// addresses mean the store was rebuilt: suspect the node.
				cuStaleReads.Inc()
				if kv.markStale(key, e, i, version) {
					kv.suspectNode(r.addr.Node)
				}
				failures++
				lastErr = fmt.Errorf("%w: key %q replica on node %d has tag %#x, want %#x",
					ErrStaleReplica, key, r.addr.Node, v, wantTag)
				continue
			}
		}
		kv.foldAddr(key, e, i, r, g, classSize, version)
		if failures > 0 {
			// Served by a backup after the primary path failed: that is
			// one failover, measured end to end from the Get's start.
			cuFailovers.Inc()
			cuFailoverNs.Observe(time.Since(start).Nanoseconds())
			kv.scheduleRepair(key)
		}
		return buf[tag : tag+size], true, nil
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
	if lastErr == nil {
		return nil, false, nil
	}
	if kv.k > 1 {
		kv.scheduleRepair(key)
		return nil, false, fmt.Errorf("%w: key %q (%d replicas): %w", ErrNoReplica, key, len(reps), lastErr)
	}
	return nil, false, lastErr
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

// scheduleRepair kicks an asynchronous repair of a key's stale replicas;
// the per-entry repairing latch collapses concurrent triggers.
func (kv *KV) scheduleRepair(key string) {
	cuReadRepairTriggers.Inc()
	go kv.RepairKey(key)
}

// RepairKey re-populates every repairable stale replica of a key from a
// live one: it fetches the authoritative record (verifying the version
// tag), writes a fresh copy onto each stale replica's node, folds the new
// placement into the index, and retires the divergent record. Replicas
// whose node is still down are left for a later pass. It returns how many
// replicas were restored.
func (kv *KV) RepairKey(key string) (int, error) {
	defer kv.rc.exit(kv.rc.enter())
	kv.mu.Lock()
	e := kv.entries[key]
	if e == nil || e.repairing {
		kv.mu.Unlock()
		return 0, nil
	}
	version := e.version
	size := e.size
	type staleRep struct {
		i    int
		node int
	}
	var stale []staleRep
	var live []kvReplica
	class := 0
	for i := range e.reps {
		r := e.reps[i]
		switch r.state {
		case repStale:
			if !kv.pool.NodeDown(r.addr.Node) {
				stale = append(stale, staleRep{i: i, node: r.addr.Node})
			}
		case repLive:
			live = append(live, r)
			class = max(class, r.classSize)
		}
	}
	if len(stale) == 0 || len(live) == 0 {
		kv.mu.Unlock()
		return 0, nil
	}
	e.repairing = true
	kv.mu.Unlock()
	defer func() {
		kv.mu.Lock()
		e.repairing = false
		kv.mu.Unlock()
	}()

	rec, ok := kv.fetchRecord(live, kv.recordTag(key, version), size)
	if !ok {
		cuRepairFails.Inc()
		return 0, fmt.Errorf("cluster: repair %q: no live replica served version %d", key, version)
	}

	repaired := 0
	var firstErr error
	for _, s := range stale {
		r, err := kv.writeReplica(s.node, class, rec)
		if err != nil {
			cuRepairFails.Inc()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		kv.mu.Lock()
		if kv.entries[key] == e && e.version == version && e.reps[s.i].state == repStale {
			old := e.reps[s.i]
			e.reps[s.i] = r
			kv.noteState(key, e)
			kv.mu.Unlock()
			repaired++
			cuReplicasRepaired.Inc()
			if !old.addr.Addr.IsZero() {
				kv.retireIfOurs(key, version, old, r)
			}
		} else {
			kv.mu.Unlock()
			kv.rc.retire(r) // the entry moved on; this copy is orphaned
		}
	}
	return repaired, firstErr
}

// retireIfOurs retires a replaced replica record only when its address
// provably still holds this key's current record (version tag verified
// by a read-before-retire). A rebuilt store recycles virtual addresses, so
// an unconditional free of the "old divergent record" could land on
// another key's freshly repaired replica living at the reused address
// and destroy it. Anything that doesn't prove to be ours is left alone:
// on a wiped node the record is already gone (the rebuild reclaimed it
// wholesale), and a genuinely divergent old-version record was already
// retired when its Put was superseded. A record that proves ours is
// retired under the incarnation it was read on, even if a suspicion
// started a new one since it was allocated. A rebuilt store reissues
// object IDs too, so the old pointer, corrected by that read, may name
// cur, the copy that replaced it (same node, same ID): then there is
// nothing to retire.
func (kv *KV) retireIfOurs(key string, version uint64, old, cur kvReplica) {
	if kv.tagBytes() > 0 {
		// Untagged records (k==1) never reach the repair path; if they
		// did, there is no way to verify ownership — retire as before.
		inc := kv.pool.incarnation(old.addr.Node)
		if !kv.pool.holdsTag(&old.addr, kv.recordTag(key, version)) {
			return
		}
		old.inc = inc
	}
	if old.addr.Node == cur.addr.Node && old.addr.Addr.ID() == cur.addr.Addr.ID() {
		return
	}
	kv.rc.retire(old)
}

// fetchRecord reads the full stored record (version tag included) from
// the first live replica that serves the expected tag.
func (kv *KV) fetchRecord(live []kvReplica, wantTag uint64, size int) ([]byte, bool) {
	tag := kv.tagBytes()
	for _, r := range live {
		classSize := r.classSize
		if classSize == 0 {
			var err error
			if classSize, err = kv.pool.ClassSize(r.addr); err != nil {
				continue
			}
		}
		buf := make([]byte, classSize)
		g := r.addr
		if _, err := kv.pool.SmartRead(&g, buf); err != nil {
			continue
		}
		if tag > 0 && binary.LittleEndian.Uint64(buf) != wantTag {
			continue
		}
		return buf[:tag+size], true
	}
	return nil, false
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
