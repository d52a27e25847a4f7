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
	"errors"
	"fmt"
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
	var ctxs []*client.Ctx
	for _, a := range addrs {
		ctx, err := client.CreateCtx(a)
		if err != nil {
			(&Pool{nodes: ctxs}).Close()
			return nil, fmt.Errorf("cluster: dial %s: %w", a, err)
		}
		ctxs = append(ctxs, ctx)
	}
	return newPool(ctxs, addrs), nil
}

// NewFromClients builds a pool over existing contexts (in-process tests).
func NewFromClients(ctxs []*client.Ctx) *Pool {
	labels := make([]string, len(ctxs))
	for i := range labels {
		labels[i] = fmt.Sprintf("node%d", i)
	}
	return newPool(ctxs, labels)
}

func newPool(ctxs []*client.Ctx, labels []string) *Pool {
	n := len(ctxs)
	return &Pool{
		FailThreshold: DefaultFailThreshold,
		ProbeCooldown: DefaultProbeCooldown,
		ProbeJitter:   DefaultProbeJitter,
		ProbeTimeout:  DefaultProbeTimeout,
		nodes:         ctxs,
		labels:        labels,
		allocs:        make([]int64, n),
		health:        make([]nodeHealth, n),
		incs:          make([]atomic.Uint64, n),
	}
}

// incarnation reports the node's current incarnation number.
func (p *Pool) incarnation(node int) uint64 { return p.incs[node].Load() }

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
		if p.passable(i) && (best == -1 || p.allocs[i] < p.allocs[best]) {
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
		p.addLoad(best, -1)
		return GlobalAddr{}, p.nodeErr(best, err)
	}
	return GlobalAddr{Node: best, Addr: addr}, nil
}

// AllocOn places an object on a specific node.
func (p *Pool) AllocOn(node, size int) (GlobalAddr, error) {
	var addr core.Addr
	err := p.on(node, func(c *client.Ctx) (err error) {
		addr, err = c.Alloc(size)
		return err
	})
	if err != nil {
		return GlobalAddr{}, err
	}
	p.addLoad(node, 1)
	return GlobalAddr{Node: node, Addr: addr}, nil
}

// addLoad moves a node's count of live allocations, which Alloc places by.
func (p *Pool) addLoad(node int, n int64) {
	p.mu.Lock()
	p.allocs[node] += n
	p.mu.Unlock()
}

// on runs fn against the node's context behind its circuit breaker: an open
// breaker fails fast with ErrNodeDown, fn's outcome feeds the breaker, and
// its failure comes back as a *NodeError naming the node.
func (p *Pool) on(node int, fn func(*client.Ctx) error) error {
	if node < 0 || node >= len(p.nodes) {
		return p.errNodeRange(node)
	}
	if err := p.gate(node); err != nil {
		return err
	}
	err := fn(p.nodes[node])
	p.observe(node, err)
	return p.nodeErr(node, err)
}

// errNodeRange builds the out-of-range error every routed call uses.
func (p *Pool) errNodeRange(node int) error {
	return fmt.Errorf("cluster: node %d out of range", node)
}

// Write updates an object; the pointer is corrected in place.
func (p *Pool) Write(g *GlobalAddr, payload []byte) error {
	return p.on(g.Node, func(c *client.Ctx) error { return c.Write(&g.Addr, payload) })
}

// Read reads via RPC with transparent correction.
func (p *Pool) Read(g *GlobalAddr, buf []byte) (n int, err error) {
	err = p.on(g.Node, func(c *client.Ctx) (err error) {
		n, err = c.Read(&g.Addr, buf)
		return err
	})
	return n, err
}

// SmartRead reads one-sidedly, repairing indirect pointers with ScanRead.
func (p *Pool) SmartRead(g *GlobalAddr, buf []byte) (n int, err error) {
	err = p.on(g.Node, func(c *client.Ctx) (err error) {
		n, err = c.SmartRead(&g.Addr, buf)
		return err
	})
	return n, err
}

// Free releases the object.
func (p *Pool) Free(g *GlobalAddr) error {
	err := p.on(g.Node, func(c *client.Ctx) error { return c.Free(&g.Addr) })
	if err == nil {
		p.addLoad(g.Node, -1)
	}
	return err
}

// ReleasePtr releases the old virtual address of a corrected pointer.
func (p *Pool) ReleasePtr(g *GlobalAddr) error {
	return p.on(g.Node, func(c *client.Ctx) error { return c.ReleasePtr(&g.Addr) })
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
