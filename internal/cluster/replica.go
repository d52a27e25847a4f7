// Pool-level replication primitives: raw k-copy objects without the KV's
// keyed index. A ReplicaSet is an ordered list of placements for one
// logical object; writes fan out in parallel, one OpWrite round trip per
// replica, and ack after W successes, reads walk the set in order failing
// over past dead replicas. The KV builds its replicated Put on
// writeAck; these exported entry points give the same machinery to users
// placing objects explicitly.
package cluster

import (
	"errors"
	"fmt"
	"sort"
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

// ReplicaSet is one logical object's ordered placements. Reps[0] is the
// primary; reads try replicas in order.
type ReplicaSet struct {
	Reps []GlobalAddr
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
// fold into g; every attempt's outcome feeds the node's breaker. With
// reissue, a transport fault or a merge re-issues the write.
func (p *Pool) writeAck(g *GlobalAddr, payload []byte, reissue bool) error {
	if g.Node < 0 || g.Node >= len(p.nodes) {
		return p.errNodeRange(g.Node)
	}
	if err := p.gate(g.Node); err != nil {
		return err
	}
	ctx := p.nodes[g.Node]
	var err error
	for attempt := 0; ; attempt++ {
		err = ctx.Write(&g.Addr, payload)
		p.observe(g.Node, err)
		merging := errors.Is(err, core.ErrCompacting)
		if err == nil || !reissue || attempt == writeAckRetries || !(merging || transport.IsRetryable(err)) {
			break
		}
		if merging {
			time.Sleep(mergeBackoff << attempt)
		}
	}
	return p.nodeErr(g.Node, err)
}

// AllocReplicated allocates k copies of a size on k distinct healthy
// nodes, least-loaded first (so the primary lands where Alloc would have
// placed a single copy). It fails — releasing any partial allocations —
// when fewer than k nodes are reachable.
func (p *Pool) AllocReplicated(size, k int) (*ReplicaSet, error) {
	if k < 1 {
		k = 1
	}
	nodes, err := p.pickReplicaNodes(k)
	if err != nil {
		return nil, err
	}
	rs := &ReplicaSet{Reps: make([]GlobalAddr, len(nodes))}
	type out struct {
		i   int
		g   GlobalAddr
		err error
	}
	ch := make(chan out, len(nodes))
	for i, node := range nodes {
		go func(i, node int) {
			g, err := p.AllocOn(node, size)
			ch <- out{i: i, g: g, err: err}
		}(i, node)
	}
	var firstErr error
	for range nodes {
		o := <-ch
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		rs.Reps[o.i] = o.g
	}
	if firstErr != nil {
		for i := range rs.Reps {
			if !rs.Reps[i].Addr.IsZero() {
				g := rs.Reps[i]
				p.Free(&g)
			}
		}
		return nil, fmt.Errorf("cluster: replicated alloc (k=%d): %w", k, firstErr)
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
		h := &p.health[i]
		if h.open && (h.probing || time.Since(h.openedAt) < p.cooldownOf(h)) {
			continue
		}
		cands = append(cands, cand{node: i, load: p.allocs[i]})
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
	type out struct {
		i   int
		g   GlobalAddr
		err error
	}
	ch := make(chan out, k)
	for i := range rs.Reps {
		// Private copy per goroutine: stragglers must not mutate the
		// caller's set after WriteReplicated returns.
		g := rs.Reps[i]
		go func(i int, g GlobalAddr) {
			err := p.writeAck(&g, payload, true)
			ch <- out{i: i, g: g, err: err}
		}(i, g)
	}
	// first is the first replica in set order not known to have failed;
	// the ack waits for it too.
	state := make([]int8, k) // 0 in flight, 1 acked, -1 failed
	first, succ, pending := 0, 0, k
	var firstErr error
	for pending > 0 && (succ < w || state[first] == 0) && succ+pending >= w {
		o := <-ch
		pending--
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			state[o.i] = -1
			for first < k-1 && state[first] < 0 {
				first++
			}
			continue
		}
		rs.Reps[o.i] = o.g // fold the corrected pointer
		state[o.i] = 1
		succ++
	}
	if pending > 0 {
		go func(pending int) {
			for ; pending > 0; pending-- {
				<-ch
			}
		}(pending)
	}
	if succ < w {
		cuWriteConcernMisses.Inc()
		return fmt.Errorf("%w: %d/%d acks (k=%d): %v", ErrWriteConcern, succ, w, k, firstErr)
	}
	return nil
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
