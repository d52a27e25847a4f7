// Batched cluster operations: scatter-gather over the pool. A Multi* call
// groups its operations by owning node (explicit for Pool, rendezvous-
// hashed for KV), fans out one OpBatch frame per node in parallel, and
// reassembles the results in input order — N operations cost one round
// trip per *node touched*, not one per operation. Per-node circuit
// breakers apply per group: a node whose breaker is open fails only its
// own operations (reported as a *NodeError naming that node), and the
// rest of the batch proceeds.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"corm/internal/client"
	"corm/internal/core"
	"corm/internal/transport"
)

// OpResult re-exports the client's per-sub-operation outcome.
type OpResult = client.OpResult

// groupByNode buckets operation indices by owning node, preserving input
// order inside each bucket.
func groupByNode(n int, nodeOf func(i int) int) map[int][]int {
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		node := nodeOf(i)
		groups[node] = append(groups[node], i)
	}
	return groups
}

// fanOut runs one function per node group, in parallel: every group but
// one on its own goroutine, the last on the caller's, so a single-node
// batch involves no handoff at all.
func fanOut(groups map[int][]int, run func(node int, idxs []int)) {
	cuFanOutWidth.Observe(int64(len(groups)))
	var wg sync.WaitGroup
	left := len(groups)
	for node, idxs := range groups {
		if left--; left == 0 {
			run(node, idxs)
			break
		}
		wg.Add(1)
		go func(node int, idxs []int) {
			defer wg.Done()
			run(node, idxs)
		}(node, idxs)
	}
	wg.Wait()
}

// MultiRead reads len(gs) objects in one batched round trip per owning
// node; bufs[i] receives object i and corrections are folded into gs[i]
// in place. Results are in input order; node-level failures (open breaker,
// transport fault) surface in each affected OpResult.Err as a *NodeError
// identifying the failing node.
func (p *Pool) MultiRead(gs []*GlobalAddr, bufs [][]byte) ([]OpResult, error) {
	if len(gs) != len(bufs) {
		return nil, fmt.Errorf("cluster: MultiRead: %d addrs, %d bufs", len(gs), len(bufs))
	}
	results := make([]OpResult, len(gs))
	groups := groupByNode(len(gs), func(i int) int { return gs[i].Node })
	fanOut(groups, func(node int, idxs []int) {
		addrs := make([]*core.Addr, len(idxs))
		nb := make([][]byte, len(idxs))
		for k, i := range idxs {
			addrs[k] = &gs[i].Addr
			nb[k] = bufs[i]
		}
		var rs []OpResult
		if err := p.on(node, func(c *client.Ctx) (err error) {
			rs, err = c.MultiRead(addrs, nb)
			return err
		}); err != nil {
			fillErr(results, idxs, err)
			return
		}
		for k, i := range idxs {
			results[i] = rs[k]
		}
	})
	return results, nil
}

// MultiAllocOn allocates len(sizes) objects on one node in one round trip.
// Successful sub-allocations are counted toward the node's load; their
// pointers are in the results' Addr fields.
func (p *Pool) MultiAllocOn(node int, sizes []int) (rs []OpResult, err error) {
	if err = p.on(node, func(c *client.Ctx) (err error) {
		rs, err = c.MultiAlloc(sizes)
		return err
	}); err != nil {
		return nil, err
	}
	live := 0
	for i := range rs {
		if rs[i].Err == nil {
			live++
		}
	}
	p.addLoad(node, int64(live))
	return rs, nil
}

// MultiFree releases len(gs) objects in one batched round trip per owning
// node, folding pointer corrections into each gs[i] first and decrementing
// the owning node's load per successful free.
func (p *Pool) MultiFree(gs []*GlobalAddr) ([]OpResult, error) {
	results := make([]OpResult, len(gs))
	groups := groupByNode(len(gs), func(i int) int { return gs[i].Node })
	fanOut(groups, func(node int, idxs []int) {
		addrs := make([]*core.Addr, len(idxs))
		for k, i := range idxs {
			addrs[k] = &gs[i].Addr
		}
		var rs []OpResult
		if err := p.on(node, func(c *client.Ctx) (err error) {
			rs, err = c.MultiFree(addrs)
			return err
		}); err != nil {
			fillErr(results, idxs, err)
			return
		}
		freed := 0
		for k, i := range idxs {
			results[i] = rs[k]
			if rs[k].Err == nil {
				freed++
			}
		}
		p.addLoad(node, -int64(freed))
	})
	return results, nil
}

// fillErr marks every index in idxs with err.
func fillErr(results []OpResult, idxs []int, err error) {
	for _, i := range idxs {
		results[i] = OpResult{Err: err}
	}
}

// --- Keyed scatter-gather ---

// MultiGet fetches len(keys) values with one batched RPC round trip per
// owning node, reassembled in input order. Missing keys (never put, or
// freed meanwhile) report found[i]=false; pointers corrected by compaction
// are repaired back into the index. On a replicated KV, each key is read
// from its first live replica in the batch, and keys whose batched read
// failed (node down, record missing, stale version tag) fall back to the
// failover path of Get — so one dead node degrades those keys to a
// per-key failover read instead of failing them. The error is the first
// per-key or node-level failure (a *NodeError when attributable to one
// node); other keys still complete.
func (kv *KV) MultiGet(keys []string) (vals [][]byte, found []bool, err error) {
	n := len(keys)
	vals = make([][]byte, n)
	found = make([]bool, n)
	if n == 0 {
		return vals, found, nil
	}
	// Snapshot the entries under the lock: reads operate on private copies
	// of each pointer (entries are shared across concurrent operations) and
	// corrections are folded back only if the entry is still current.
	type ref struct {
		e       *kvEntry
		version uint64
		size    int
		repIdx  int       // which replica the batched read targets; -1: none
		from    kvReplica // its snapshot, for foldAddr
		g       GlobalAddr
	}
	refs := make([]ref, n)
	var fallback []int // keys that must go through the failover read path
	live := 0
	defer kv.rc.exit(kv.rc.enter())
	kv.mu.Lock()
	for i, k := range keys {
		e := kv.entries[k]
		if e == nil {
			continue
		}
		rep := slices.IndexFunc(e.reps, kvReplica.readable)
		if rep == -1 {
			// No live replica on record; Get will retry/repair.
			fallback = append(fallback, i)
			refs[i] = ref{e: e, repIdx: -1}
			continue
		}
		refs[i] = ref{e: e, version: e.version, size: e.size, repIdx: rep, from: e.reps[rep], g: e.reps[rep].addr}
		live++
	}
	kv.mu.Unlock()
	tag := kv.tagBytes()
	if live > 0 {
		gaddrs := make([]*GlobalAddr, 0, live)
		bufs := make([][]byte, 0, live)
		idx := make([]int, 0, live)
		for i := range refs {
			if refs[i].e == nil || refs[i].repIdx < 0 {
				continue
			}
			buf, cerr := kv.pool.recordBuf(refs[i].from)
			if cerr != nil {
				err = cmp.Or(err, cerr)
				continue
			}
			gaddrs = append(gaddrs, &refs[i].g)
			bufs = append(bufs, buf)
			idx = append(idx, i)
		}
		results, rerr := kv.pool.MultiRead(gaddrs, bufs)
		if rerr != nil {
			return vals, found, rerr
		}
		for k, i := range idx {
			r, rerr := &refs[i], results[k].Err
			if rerr == nil {
				rerr = checkTag(bufs[k], r.g, kv.recordTag(keys[i], r.version))
			}
			switch {
			case rerr == nil:
				vals[i] = bufs[k][tag : tag+r.size]
				found[i] = true
				kv.foldAddr(keys[i], r.e, r.repIdx, r.from, r.g, len(bufs[k]), r.version)
			case kv.k > 1 && kv.diverged(keys[i], r.e, r.repIdx, r.version, r.g.Node, rerr):
				// Another replica may serve; the diverged one awaits repair.
				fallback = append(fallback, i)
			case kv.k == 1 && isMissing(rerr):
				// Unreplicated: the object vanished under us (freed or
				// released elsewhere) — an honest miss, not a failure.
			case kv.k > 1:
				fallback = append(fallback, i)
			default:
				err = cmp.Or(err, fmt.Errorf("cluster: MultiGet %q: %w", keys[i], rerr))
			}
		}
	}
	// Failover pass: every key the batch could not serve takes the ordered
	// replica walk (backup reads, read repair) individually.
	for _, i := range fallback {
		v, ok, gerr := kv.Get(keys[i])
		vals[i], found[i] = v, ok
		if gerr != nil && err == nil {
			err = fmt.Errorf("cluster: MultiGet %q: %w", keys[i], gerr)
		}
	}
	return vals, found, err
}

// isMissing classifies per-key failures that mean "no such object".
func isMissing(err error) bool {
	return errors.Is(err, core.ErrNotFound) || errors.Is(err, core.ErrInvalidAddr)
}

// isDivergent classifies per-replica read failures that mean the node is
// reachable but no longer holds the record its pointer names: the record
// was freed, or the node's store was rebuilt from scratch (a wiped node
// rejects the old pointer's rkey or bounds). Repair — not retry — is the
// cure, so these mark the replica stale; transport-level faults do not
// (the node may come back with its memory intact).
func isDivergent(err error) bool {
	return isMissing(err) ||
		errors.Is(err, transport.ErrDMABadKey) ||
		errors.Is(err, transport.ErrDMABounds)
}

// MultiPut stores len(keys) values with at most two frames per node touched
// (writeReplicas), not one alloc round trip per replica, and commits each
// key through Put's install step. Unlike Put, it returns only after every
// replica has resolved: stronger than W, and it leaves no stragglers, but
// a node that hangs holds the call up to the transport's CallTimeout.
// Results are per key, in input order; err reports malformed input only.
// When a key appears more than once, the last occurrence wins and earlier
// ones share its outcome.
func (kv *KV) MultiPut(keys []string, values [][]byte) (errs []error, err error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("cluster: MultiPut: %d keys, %d values", len(keys), len(values))
	}
	errs = make([]error, len(keys))
	// Last occurrence of each key wins; earlier duplicates alias its slot.
	last := make(map[string]int, len(keys))
	for i, k := range keys {
		last[k] = i
	}
	puts := make([][]replicaWrite, len(keys))
	versions := make([]uint64, len(keys))
	var writes []*replicaWrite
	for i, key := range keys {
		if last[key] != i {
			continue
		}
		nodes := kv.ReplicasFor(key)
		version, class := kv.nextVersion(key, len(values[i]))
		rec := kv.encodeRecord(kv.recordTag(key, version), values[i])
		if kv.k > 1 {
			cuReplicatedWrites.Inc()
		}
		versions[i] = version
		puts[i] = make([]replicaWrite, len(nodes))
		for r, node := range nodes {
			puts[i][r] = replicaWrite{node: node, class: class, rec: rec}
			writes = append(writes, &puts[i][r])
		}
	}
	groups := groupByNode(len(writes), func(j int) int { return writes[j].node })
	fanOut(groups, func(node int, idxs []int) {
		ws := make([]*replicaWrite, len(idxs))
		for k, j := range idxs {
			ws[k] = writes[j]
		}
		kv.writeReplicas(node, ws)
	})
	for i, ws := range puts {
		if ws == nil {
			continue
		}
		e := &kvEntry{size: len(values[i]), version: versions[i], reps: make([]kvReplica, len(ws))}
		succ := 0
		var firstErr error
		for r, w := range ws {
			e.reps[r], firstErr = w.rep, cmp.Or(firstErr, w.err)
			if w.err == nil {
				succ++
			}
		}
		if ok, ierr := kv.install(keys[i], e, errConcern(succ, kv.w, len(ws), firstErr)); !ok {
			kv.rc.retire(liveRecords(e)...)
			errs[i] = ierr
		}
	}
	// Earlier duplicates share the winning occurrence's outcome.
	for i, k := range keys {
		errs[i] = errs[last[k]]
	}
	return errs, nil
}

// replicaWrite is one replica of one key in a MultiPut: the record bound
// for node, and the slot it landed in or the error that stopped it.
type replicaWrite struct {
	node, class int
	rec         []byte
	rep         kvReplica
	placed      bool // rep holds a slot this write owns
	written     bool
	err         error
}

// writeReplicas writes each record in ws into its own slot on node, in two
// frames: one MultiAllocOn for the records no spare fits, then one
// MultiWrite for all of them. Whatever the batch did not write — the
// node's breaker is open, a frame was lost, a slot met a merge — retries
// alone through writeReplica, its slot retired first.
func (kv *KV) writeReplicas(node int, ws []*replicaWrite) {
	var fresh []*replicaWrite
	var sizes []int
	for _, w := range ws {
		if w.rep, w.placed = kv.rc.take(node, w.class, len(w.rec)); !w.placed {
			fresh, sizes = append(fresh, w), append(sizes, len(w.rec))
		}
	}
	if len(fresh) > 0 {
		inc := kv.pool.incarnation(node)
		if rs, err := kv.pool.MultiAllocOn(node, sizes); err == nil {
			for k, w := range fresh {
				if rs[k].Err == nil {
					g := GlobalAddr{Node: node, Addr: rs[k].Addr}
					classSize, _ := kv.pool.ClassSize(g)
					w.rep, w.placed = kvReplica{addr: g, classSize: classSize, inc: inc}, true
				}
			}
		}
	}
	var sent []*replicaWrite
	var addrs []*core.Addr
	var payloads [][]byte
	for _, w := range ws {
		if w.placed && (kv.rc.merging == nil || !kv.rc.merging(w.rep.addr)) {
			sent = append(sent, w)
			addrs = append(addrs, &w.rep.addr.Addr)
			payloads = append(payloads, w.rec)
		}
	}
	if len(sent) > 0 {
		var rs []OpResult
		err := kv.pool.on(node, func(c *client.Ctx) (err error) {
			rs, err = c.MultiWrite(addrs, payloads)
			return err
		})
		for k, w := range sent {
			w.written = err == nil && rs[k].Err == nil
		}
	}
	for _, w := range ws {
		switch {
		case w.written:
			w.rep.state, w.rep.tag = repLive, kv.tagOf(w.rec)
		case w.placed:
			kv.rc.retire(w.rep)
			fallthrough
		default:
			w.rep, w.err = kv.writeReplica(node, w.class, w.rec)
		}
	}
}
