// Replication: the W-of-k write path. A KV Put, a replicated FetchAdd's
// delta propagation and WriteReplicated follow one rule, writeW: one
// message per replica, each on its own goroutine, and an ack once W
// succeeded; writes still in flight finish in the background. Put writes
// each replica into a slot nothing else references and commits through
// install; RepairKey re-populates stale replicas from a tag-verified live
// one. A ReplicaSet is one explicitly placed object's ordered replicas,
// without the KV's index; reads walk it in order past dead replicas.
package cluster

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"corm/internal/client"
	"corm/internal/core"
	"corm/internal/transport"
)

// ErrWriteConcern marks a replicated write that could not reach its write
// concern: fewer than W replicas acknowledged. The underlying first
// failure is wrapped.
var ErrWriteConcern = errors.New("cluster: write concern not met")

// ErrNoReplica marks a replicated read that exhausted the whole replica
// set without one replica serving the expected record.
var ErrNoReplica = errors.New("cluster: no live replica")

// ErrStaleReplica marks a replica whose record carries the wrong version
// tag: the node rejoined with old data (divergence), distinct from a node
// being down.
var ErrStaleReplica = errors.New("cluster: stale replica")

// ReplicaSet is one logical object's ordered placements. Reps[0] is the
// primary; reads try replicas in order.
type ReplicaSet struct {
	Reps []GlobalAddr
}

// outcome is one replica write's result in a W-of-k write.
type outcome struct {
	i   int
	err error
}

// stragglers are the writes of a W-of-k write still in flight when its
// wait ended.
type stragglers struct {
	res <-chan outcome
	n   int
}

// writeW runs write(i) for each of n replicas, one goroutine each, and
// hands their outcomes to fold on the caller's goroutine until the acks —
// acked held already, plus each success — reach w, or w is out of reach;
// fold may hold the wait open past w by returning true. It returns the
// writes still in flight (the channel holds every result, so a straggler
// nobody hands off still finishes) and, below w, ErrWriteConcern wrapping
// the first failure. A write's other results go to a slot of its own, read
// once its outcome arrived. The frames on a replica goroutine's path
// decide where its stack grows; a growth deep in the socket write costs a
// Put microseconds (DESIGN.md §12).
func writeW(n, acked, w int, write func(i int) error, fold func(outcome) (hold bool)) (stragglers, error) {
	res := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func(i int) { res <- outcome{i, write(i)} }(i)
	}
	succ, pending, hold := acked, n, false
	var firstErr error
	for pending > 0 && succ+pending >= w && (succ < w || hold) {
		o := <-res
		pending--
		if o.err == nil {
			succ++
		}
		firstErr = cmp.Or(firstErr, o.err)
		hold = fold(o)
	}
	return stragglers{res, pending}, errConcern(succ, w, n+acked, firstErr)
}

// handOff passes each straggler's outcome to late on one background
// goroutine, then runs done. With no straggler it does nothing.
func (s stragglers) handOff(late func(outcome), done func()) {
	if s.n == 0 {
		return
	}
	go func() {
		defer done()
		for i := 0; i < s.n; i++ {
			late(<-s.res)
		}
	}()
}

// errConcern is the verdict on a replicated write that gathered succ of
// the w acks it needs from k replicas: nil, or ErrWriteConcern wrapping
// the first failure.
func errConcern(succ, w, k int, first error) error {
	if succ >= w {
		return nil
	}
	cuWriteConcernMisses.Inc()
	if first == nil { // the missing replicas were never written: not live
		return fmt.Errorf("%w: %d/%d acks (replicas=%d)", ErrWriteConcern, succ, w, k)
	}
	return fmt.Errorf("%w: %d/%d acks (replicas=%d): %w", ErrWriteConcern, succ, w, k, first)
}

// writeAckRetries bounds re-issues of a replica write across transport
// reconnects. Plain writes are never auto-retried (a lost frame cannot
// tell whether the server applied it), but every writeAck caller targets
// a slot it owns exclusively — a fresh allocation, or a spare the KV's
// reclaimer handed to exactly one Put after no index entry and no reader
// could reference it — so re-issuing the same bytes is idempotent by
// construction. This matters right after a node rejoins: the first write
// on each pooled channel finds the old connection dead, and without the
// retry it would spuriously fail the replica (or the repair) instead of
// redialing. Spares are written with reissue off all the same: a
// reconnect may reach a rebuilt store where their address is another
// record's.
const writeAckRetries = 2

// mergeBackoff paces the re-issue of a write whose block a merge holds
// (ErrCompacting), doubling per attempt: the paper's protocol is to retry.
const mergeBackoff = 100 * time.Microsecond

// writeAck issues one replica write as one OpWrite round trip on the
// caller's goroutine and returns its acknowledgement. Pointer corrections
// fold into g; every attempt passes the node's breaker and feeds it. With
// reissue, a transport fault or a merge re-issues the write.
func (p *Pool) writeAck(g *GlobalAddr, payload []byte, reissue bool) error {
	for attempt := 0; ; attempt++ {
		err := p.on(g.Node, func(c *client.Ctx) error { return c.Write(&g.Addr, payload) })
		merging := errors.Is(err, core.ErrCompacting)
		if err == nil || !reissue || attempt == writeAckRetries || !(merging || transport.IsRetryable(err)) {
			return err
		}
		if merging {
			time.Sleep(mergeBackoff << attempt)
		}
	}
}

// AllocReplicated allocates k copies of a size on k distinct healthy
// nodes, least-loaded first (so the primary lands where Alloc would have
// placed a single copy). It fails — releasing any partial allocations —
// when fewer than k nodes are reachable.
func (p *Pool) AllocReplicated(size, k int) (*ReplicaSet, error) {
	k = max(k, 1)
	nodes, err := p.pickReplicaNodes(k)
	if err != nil {
		return nil, err
	}
	rs := &ReplicaSet{Reps: make([]GlobalAddr, len(nodes))}
	errs := make([]error, len(nodes))
	fanOut(groupByNode(len(nodes), func(i int) int { return nodes[i] }), func(node int, idxs []int) {
		rs.Reps[idxs[0]], errs[idxs[0]] = p.AllocOn(node, size)
	})
	if err := cmp.Or(errs...); err != nil {
		for i := range rs.Reps {
			if !rs.Reps[i].Addr.IsZero() {
				p.Free(&rs.Reps[i])
			}
		}
		return nil, fmt.Errorf("cluster: replicated alloc (k=%d): %w", k, err)
	}
	return rs, nil
}

// pickReplicaNodes chooses k distinct nodes, skipping open breakers,
// least-loaded first.
func (p *Pool) pickReplicaNodes(k int) ([]int, error) {
	type cand struct {
		node int
		load int64
	}
	p.mu.Lock()
	cands := make([]cand, 0, len(p.nodes))
	for i := range p.nodes {
		if p.passable(i) {
			cands = append(cands, cand{node: i, load: p.allocs[i]})
		}
	}
	p.mu.Unlock()
	if len(cands) < k {
		return nil, fmt.Errorf("%w: %d of %d nodes healthy, need %d",
			ErrNodeDown, len(cands), len(p.nodes), k)
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].load < cands[b].load })
	nodes := make([]int, k)
	for i := 0; i < k; i++ {
		nodes[i] = cands[i].node
	}
	return nodes, nil
}

// WriteReplicated writes the payload to every replica in parallel and
// returns once w replicas acknowledged (w<=0 or w>k means all), among them
// the first replica in set order that did not fail: ReadReplicated serves
// the first replica in set order that answers, so that one must not be a
// write still in flight. Writes still in flight complete in the background
// (their breaker outcomes are still observed; their pointer corrections
// are dropped — the stale virtual address remains resolvable one-sidedly
// via ScanRead). If w acks are unreachable, the first failure is returned
// wrapped in ErrWriteConcern.
func (p *Pool) WriteReplicated(rs *ReplicaSet, payload []byte, w int) error {
	k := len(rs.Reps)
	if k == 0 {
		return errors.New("cluster: empty replica set")
	}
	if w <= 0 || w > k {
		w = k
	}
	// Each write works on its own copy: stragglers must not touch the
	// caller's set after WriteReplicated returns.
	reps := slices.Clone(rs.Reps)
	// first is the first replica in set order not known to have failed.
	state := make([]int8, k) // 0 in flight, 1 acked, -1 failed
	first := 0
	_, err := writeW(k, 0, w, func(i int) error {
		return p.writeAck(&reps[i], payload, true)
	}, func(o outcome) bool {
		state[o.i] = -1
		if o.err == nil {
			rs.Reps[o.i], state[o.i] = reps[o.i], 1 // fold the corrected pointer
		}
		for first < k-1 && state[first] < 0 {
			first++
		}
		return state[first] == 0
	})
	return err
}

// ReadReplicated reads the object from the first replica that serves it,
// walking the set in order past dead or missing replicas. It returns the
// bytes read and the index of the replica that served (0 = primary). A
// successful read past index 0 counts as a failover.
func (p *Pool) ReadReplicated(rs *ReplicaSet, buf []byte) (n, replica int, err error) {
	if len(rs.Reps) == 0 {
		return 0, -1, errors.New("cluster: empty replica set")
	}
	start := time.Now()
	var lastErr error
	for i := range rs.Reps {
		g := rs.Reps[i]
		if g.Addr.IsZero() {
			continue
		}
		n, err := p.SmartRead(&g, buf)
		if err == nil {
			rs.Reps[i] = g
			if i > 0 {
				cuFailovers.Inc()
				cuFailoverNs.Observe(time.Since(start).Nanoseconds())
			}
			return n, i, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: all replicas unplaced")
	}
	return 0, -1, fmt.Errorf("%w: %d replicas: %w", ErrNoReplica, len(rs.Reps), lastErr)
}

// FreeReplicated releases every replica, best-effort: replicas already
// gone (missing) or behind a down node don't fail the free — their
// records died with the node's store.
func (p *Pool) FreeReplicated(rs *ReplicaSet) error {
	var firstErr error
	for i := range rs.Reps {
		if rs.Reps[i].Addr.IsZero() {
			continue
		}
		g := rs.Reps[i]
		if err := p.Free(&g); err != nil && firstErr == nil &&
			!isMissing(err) && !errors.Is(err, ErrNodeDown) {
			firstErr = err
		}
	}
	return firstErr
}

// Put stores value under key on its top-k rendezvous nodes (k=1: its
// rendezvous node), writing each replica into a slot nothing else
// references — a spare or a fresh allocation, never the old record in
// place (DESIGN.md §12) — and acks after WriteConcern successes. Writes
// still in flight at ack time finish in the background and fold their
// outcome into the entry: a late success makes its replica live; a late
// failure marks it stale and schedules its repair at once, since nothing
// else notices the miss until a read trips over it or the replicator's
// paced cycle finds it. If the entry moved on meanwhile, late slots are
// retired. If fewer than W writes succeed, the Put fails, its slots are
// retired, and the previous entry stays fully intact.
func (kv *KV) Put(key string, value []byte) error {
	nodes := kv.ReplicasFor(key)
	version, class := kv.nextVersion(key, len(value))
	rec := kv.encodeRecord(kv.recordTag(key, version), value)
	if kv.k > 1 {
		cuReplicatedWrites.Inc()
	}
	e := &kvEntry{size: len(value), version: version, reps: make([]kvReplica, len(nodes))}
	for i, node := range nodes {
		e.reps[i] = kvReplica{addr: GlobalAddr{Node: node}, state: repPending}
	}
	slots := make([]kvReplica, len(nodes)) // slot i: replica i's write, read after its outcome
	late, err := writeW(len(nodes), 0, kv.w, func(i int) (err error) {
		slots[i], err = kv.writeReplica(nodes[i], class, rec)
		return err
	}, func(o outcome) bool {
		e.reps[o.i] = slots[o.i]
		return false
	})
	if late.n > 0 {
		// Counted before the entry can be installed, so a Delete that
		// empties the index waits for the stragglers' slots.
		kv.rc.bg.Add(1)
	}
	installed, err := kv.install(key, e, err)
	if !installed {
		// Write concern missed, or a newer version won the race: retire
		// every slot this Put wrote, stragglers included; the previous
		// entry stays intact.
		kv.rc.retire(liveRecords(e)...)
	}
	late.handOff(func(o outcome) {
		kv.mu.Lock()
		current := kv.entries[key] == e // never, if e was not installed
		if current {
			e.reps[o.i] = slots[o.i]
			kv.noteState(key, e)
		}
		kv.mu.Unlock()
		switch {
		case current && o.err != nil:
			kv.scheduleRepair(key)
		case !current && o.err == nil:
			kv.rc.retire(slots[o.i])
		}
	}, func() { kv.rc.bg.Add(-1) })
	return err
}

// install is the commit step Put and MultiPut share, once e's replica
// writes resolved to the write-concern verdict err (errConcern). Below the
// write concern it fails with that error. A concurrent Put may have
// installed a higher version already; then this write lost the overlap
// race. Otherwise e replaces the key's entry, the previous entry's records
// are retired (readers of the old snapshot may hold them), and replicas
// already stale are queued for repair. It reports whether e was installed;
// if not, the caller retires e's slots.
func (kv *KV) install(key string, e *kvEntry, err error) (bool, error) {
	if err != nil {
		return false, err
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
	version, size, reps := e.version, e.size, slices.Clone(e.reps)
	var stale []int // replicas to repair: stale, on a node that is up
	var live []kvReplica
	class := 0
	for i, r := range reps {
		switch {
		case r.state == repStale && !kv.pool.NodeDown(r.addr.Node):
			stale = append(stale, i)
		case r.state == repLive:
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

	tag := kv.recordTag(key, version)
	var rec []byte
	for _, r := range live {
		if buf, _, err := kv.pool.readRecord(r, tag); err == nil {
			rec = buf[:kv.tagBytes()+size]
			break
		}
	}
	if rec == nil {
		cuRepairFails.Inc()
		return 0, fmt.Errorf("cluster: repair %q: no live replica served version %d", key, version)
	}

	repaired := 0
	var firstErr error
	for _, i := range stale {
		r, err := kv.writeReplica(reps[i].addr.Node, class, rec)
		if err != nil {
			cuRepairFails.Inc()
			firstErr = cmp.Or(firstErr, err)
			continue
		}
		kv.mu.Lock()
		if kv.entries[key] == e && e.version == version && e.reps[i].state == repStale {
			old := e.reps[i]
			e.reps[i] = r
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
