// Replication: the W-of-k write path. A KV Put and a replicated
// FetchAdd's delta propagation follow one rule, writeW: one message per
// replica, an ack once W succeeded, and the writes still in flight finish
// in the background. Put posts each replica's write into a spare slot from
// its own goroutine, falls back to a fresh allocation where there is none,
// and commits through install; RepairKey re-populates stale replicas from
// a tag-verified live one.
package cluster

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

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

// outcome is one replica write's final result in a W-of-k write.
type outcome struct {
	i   int
	err error
}

// A leg is one replica's write in a W-of-k write. A posted leg went out
// from the caller's goroutine: g is its target, corrected on completion,
// and the fan-out deadline expires it. A blocking leg (g nil) runs on a
// goroutine of its own, whose calls dial and carry their own timeouts.
type leg struct {
	g    *GlobalAddr
	post transport.Posted
}

// fanout is one W-of-k write in flight: every leg reports into one
// completion queue under its index, and one collector — the caller, then
// the hand-off goroutine — gathers them (DESIGN.md §12).
type fanout struct {
	p       *Pool
	cq      chan transport.Completion
	legs    []leg
	open    int               // legs whose final completion is still to come
	block   func(i int) error // a blocking leg's write
	timer   *time.Timer       // the posted legs' deadline
	tc      <-chan time.Time  // timer.C while armed and not yet fired
	expired bool              // the deadline passed
}

// fanoutPool recycles fan-outs with their completion queue and timer. A
// fan-out goes back only once every leg completed, so its queue is empty.
var fanoutPool = sync.Pool{New: func() any { return new(fanout) }}

// newFanout begins an n-leg W-of-k write whose blocking legs run block.
func (p *Pool) newFanout(n int, block func(i int) error) *fanout {
	f := fanoutPool.Get().(*fanout)
	if cap(f.cq) < n {
		f.cq = make(chan transport.Completion, n)
	}
	if cap(f.legs) < n {
		f.legs = make([]leg, n)
	}
	f.p, f.legs, f.block, f.expired = p, f.legs[:n], block, false
	return f
}

// start launches leg i: with g, the write of payload to *g, posted from
// the caller's goroutine through the node's breaker (an open breaker fails
// it at once); without g, or while g's node awaits a redial, a blocking leg.
func (f *fanout) start(i int, g *GlobalAddr, payload []byte) {
	f.open++
	f.legs[i] = leg{}
	if g == nil || !f.p.nodes[g.Node].CanPost() {
		f.run(i)
		return
	}
	if err := f.p.gate(g.Node); err != nil {
		f.cq <- transport.Completion{Tag: i, Err: err}
		return
	}
	f.legs[i] = leg{g: g, post: f.p.nodes[g.Node].PostWrite(&g.Addr, payload, i, f.cq)}
	if d := f.p.postTimeout; d > 0 && f.tc == nil {
		if f.timer == nil {
			f.timer = time.NewTimer(d)
		} else {
			f.timer.Reset(d)
		}
		f.tc = f.timer.C
	}
}

// run starts leg i on a goroutine of its own.
func (f *fanout) run(i int) {
	cuBlockingLegs.Inc()
	go func() { f.cq <- transport.Completion{Tag: i, Err: f.block(i)} }()
}

// next collects one leg's final outcome. A posted leg's completion passes
// the node's breaker and, failed before the deadline, re-runs the leg
// blocking. When the deadline passes, every post still open is expired;
// from then on a failed post is final.
func (f *fanout) next() outcome {
	for {
		var c transport.Completion
		select {
		case c = <-f.cq:
		case <-f.tc:
			f.tc, f.expired = nil, true
			for _, l := range f.legs {
				if l.g != nil {
					l.post.Expire()
				}
			}
			continue
		}
		g := f.legs[c.Tag].g
		if g == nil {
			f.open--
			return outcome{c.Tag, c.Err}
		}
		f.legs[c.Tag] = leg{}
		err := f.p.nodes[g.Node].WriteDone(c, &g.Addr)
		f.p.observe(g.Node, err)
		if err != nil && !f.expired {
			f.run(c.Tag)
			continue
		}
		f.open--
		return outcome{c.Tag, f.p.nodeErr(g.Node, err)}
	}
}

// writeW collects a W-of-k write: each leg's outcome goes to fold on the
// caller's goroutine until the acks — acked held already, plus each
// success — reach w, or w is out of reach; then, below w, it returns
// ErrWriteConcern wrapping the first failure. The legs still open are
// stragglers for handOff.
func (f *fanout) writeW(acked, w int, fold func(outcome)) error {
	succ := acked
	var firstErr error
	for f.open > 0 && succ+f.open >= w && succ < w {
		o := f.next()
		if o.err == nil {
			succ++
		}
		firstErr = cmp.Or(firstErr, o.err)
		fold(o)
	}
	return errConcern(succ, w, len(f.legs)+acked, firstErr)
}

// handOff passes each straggler's outcome to late on one background
// goroutine, then runs done; with no straggler it runs neither. The
// fan-out is released once its last leg completed.
func (f *fanout) handOff(late func(outcome), done func()) {
	if f.open == 0 {
		f.release()
		return
	}
	go func() {
		defer done()
		for f.open > 0 {
			late(f.next())
		}
		f.release()
	}()
}

// release returns a fan-out whose every leg completed to the pool.
func (f *fanout) release() {
	if f.tc != nil && !f.timer.Stop() {
		select {
		case <-f.timer.C:
		default:
		}
	}
	f.p, f.block, f.tc = nil, nil, nil
	fanoutPool.Put(f)
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
// tell whether the server applied it), but a write into a fresh
// allocation targets a slot nothing else references, so re-issuing the
// same bytes is idempotent by construction. This matters right after a
// node rejoins: the first write on each pooled channel finds the old
// connection dead, and without the retry it would spuriously fail the
// replica (or the repair) instead of redialing. Spares are written with
// reissue off: a reconnect may reach a rebuilt store where their address
// is another record's.
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
		err := p.Write(g, payload)
		merging := errors.Is(err, core.ErrCompacting)
		if err == nil || !reissue || attempt == writeAckRetries || !(merging || transport.IsRetryable(err)) {
			return err
		}
		if merging {
			time.Sleep(mergeBackoff << attempt)
		}
	}
}

// Put stores value under key on its top-k rendezvous nodes (k=1: its
// rendezvous node), writing each replica into a slot nothing else
// references — a spare or a fresh allocation, never the old record in
// place (DESIGN.md §12) — and acks after WriteConcern successes. A spare's
// write is posted from this goroutine; a fresh allocation, or a spare that
// failed or cannot be posted yet, runs on a goroutine of its own.
// Writes still in flight at ack time finish in the background and fold
// their outcome into the entry: a late success makes its replica live; a
// late failure marks it stale and schedules its repair at once, since
// nothing else notices the miss until a read trips over it or the
// replicator's paced cycle finds it. If the entry moved on meanwhile, late
// slots are retired. If fewer than W writes succeed, the Put fails, its
// slots are retired, and the previous entry stays fully intact.
func (kv *KV) Put(key string, value []byte) error {
	nodes := kv.ReplicasFor(key)
	version, class := kv.nextVersion(key, len(value))
	rec := kv.encodeRecord(kv.recordTag(key, version), value)
	if kv.k > 1 {
		cuReplicatedWrites.Inc()
	}
	e := &kvEntry{size: len(value), version: version, reps: make([]kvReplica, len(nodes))}
	slots := make([]kvReplica, len(nodes)) // slot i: replica i's write, read after its outcome
	f := kv.pool.newFanout(len(nodes), func(i int) (err error) {
		kv.failed(&slots[i]) // a spare that failed or could not be posted
		slots[i], err = kv.writeFresh(slots[i].addr.Node, rec)
		return err
	})
	for i, node := range nodes {
		e.reps[i] = kvReplica{addr: GlobalAddr{Node: node}, state: repPending}
		slots[i] = kvReplica{addr: GlobalAddr{Node: node}, state: repStale}
		var g *GlobalAddr // a spare is posted; a fresh allocation blocks
		if r, ok := kv.spare(node, class, rec); ok {
			slots[i], g = r, &slots[i].addr
		}
		f.start(i, g, rec)
	}
	err := f.writeW(0, kv.w, func(o outcome) {
		if o.err != nil {
			kv.failed(&slots[o.i])
		}
		e.reps[o.i] = slots[o.i]
	})
	if f.open > 0 {
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
	f.handOff(func(o outcome) {
		if o.err != nil {
			kv.failed(&slots[o.i])
		}
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

// failed turns *r, the slot of a replica write that failed, into the
// stale replica, returning a spare it still held to the reclaimer.
func (kv *KV) failed(r *kvReplica) {
	if r.readable() {
		kv.rc.retire(*r)
	}
	*r = kvReplica{addr: GlobalAddr{Node: r.addr.Node}, state: repStale}
}

// spare pops a spare slot of the class on node for rec, if the reclaimer
// holds one and it fits, marked as holding rec once written. A spare whose
// block a merge holds goes back.
func (kv *KV) spare(node, class int, rec []byte) (kvReplica, bool) {
	r, ok := kv.rc.take(node, class, len(rec))
	if !ok {
		return r, false
	}
	if kv.rc.merging != nil && kv.rc.merging(r.addr) {
		kv.rc.retire(r)
		return r, false
	}
	r.state, r.tag = repLive, kv.tagOf(rec)
	return r, true
}

// writeFresh writes rec into a fresh allocation on node. On failure it
// returns the replica marked stale, its allocation retired.
func (kv *KV) writeFresh(node int, rec []byte) (kvReplica, error) {
	stale := kvReplica{addr: GlobalAddr{Node: node}, state: repStale}
	inc := kv.pool.incarnation(node)
	g, err := kv.pool.AllocOn(node, len(rec))
	if err != nil {
		return stale, err
	}
	classSize, _ := kv.pool.ClassSize(g)
	r := kvReplica{addr: g, classSize: classSize, state: repLive, inc: inc, tag: kv.tagOf(rec)}
	if err := kv.pool.writeAck(&r.addr, rec, true); err != nil {
		kv.rc.retire(r)
		return stale, err
	}
	return r, nil
}

// writeReplica writes rec into a slot on node on the caller's goroutine: a
// spare of the given class when there is one, else — or if the spare's
// write fails — a fresh allocation. On failure it returns the replica
// marked stale.
func (kv *KV) writeReplica(node, class int, rec []byte) (kvReplica, error) {
	if r, ok := kv.spare(node, class, rec); ok {
		if kv.pool.writeAck(&r.addr, rec, false) == nil {
			return r, nil
		}
		kv.rc.retire(r)
	}
	return kv.writeFresh(node, rec)
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
