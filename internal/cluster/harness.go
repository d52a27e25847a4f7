// In-process cluster harness: spins n full CoRM nodes (store + RPC server
// + transport listener) on loopback and a Pool dialed to all of them, with
// per-node kill / restart / wipe controls. The failover drill
// (cmd/corm-bench failover), the soak (internal/soak) and the chaos tests
// share it, so "kill a node" means exactly the same thing in CI
// assertions and in reported numbers:
//
//   - Kill: the transport listener dies; the store (node memory) survives.
//   - Restart: a new listener on the same address over the same store —
//     a network/process blip with durable memory.
//   - Wipe: a new listener over a brand-new empty store — the node lost
//     its memory (machine replacement), the case read repair and the
//     re-replicator exist for.
package cluster

import (
	"fmt"
	"net"
	"time"

	"corm/internal/client"
	"corm/internal/core"
	"corm/internal/rpc"
	"corm/internal/timing"
	"corm/internal/transport"
)

// HarnessOptions tune the nodes a local cluster spins up. The zero value
// reproduces the classic SpinLocal topology.
type HarnessOptions struct {
	// Canaries enables slot guard bytes on every node's store (core
	// memory-safety canaries), so soak runs detect boundary corruption.
	Canaries bool
	// Workers overrides the per-node worker count (default 2).
	Workers int
	// QueueLimit bounds each node's rpc.Server waiting line; past it,
	// requests shed with ErrThrottled. 0 = unbounded (no shedding).
	QueueLimit int
	// Dialer, when set, opens the pool's client connections — the
	// fault-injection hook (internal/fault Injector.Dial). Setting it
	// forces the wire path (no shared-memory fast path).
	Dialer func(network, addr string) (net.Conn, error)
	// MemBudgetBytes caps each node's resident frames; cold blocks spill
	// to TierSpec and fault back in on access (elastic memory). 0 = off.
	MemBudgetBytes int64
	// TierSpec selects the spill backend ("compressed", "disk",
	// "disk:<dir>", "off"); empty with a budget defaults to compressed.
	TierSpec string
}

// LocalNode is one harness-managed CoRM node.
type LocalNode struct {
	store *core.Store
	rpc   *rpc.Server
	ts    *transport.Server
	addr  string
	seed  int64
	opts  HarnessOptions
}

// Addr is the node's loopback listen address.
func (n *LocalNode) Addr() string { return n.addr }

// Store exposes the node's store (assertions on server-side state).
func (n *LocalNode) Store() *core.Store { return n.store }

// Kill closes the node's transport listener; its store survives.
func (n *LocalNode) Kill() { n.ts.Close() }

// Restart brings the node back on its recorded address over the surviving
// store: durable memory, new network presence.
func (n *LocalNode) Restart() error {
	ts, err := transport.Listen(n.addr, n.rpc)
	if err != nil {
		return fmt.Errorf("cluster: restart %s: %w", n.addr, err)
	}
	n.ts = ts
	return nil
}

// Wipe brings the node back on its recorded address with a brand-new
// empty store: every record it held is gone, as after a machine
// replacement. Rejoining wiped is the divergence case version tags
// detect and read repair heals.
func (n *LocalNode) Wipe() error {
	store, err := newLocalStore(n.seed, n.opts)
	if err != nil {
		return err
	}
	oldRPC := n.rpc
	oldStore := n.store
	n.store = store
	n.rpc = rpc.NewServer(store)
	n.rpc.SetQueueLimit(n.opts.QueueLimit)
	oldRPC.Close()
	oldStore.Close()
	ts, err := transport.Listen(n.addr, n.rpc)
	if err != nil {
		return fmt.Errorf("cluster: wipe %s: %w", n.addr, err)
	}
	n.ts = ts
	return nil
}

// Close tears the node down, releasing tiering resources with it.
func (n *LocalNode) Close() {
	n.ts.Close()
	n.rpc.Close()
	n.store.Close()
}

// LocalCluster is an in-process cluster: n nodes plus a pool over them.
type LocalCluster struct {
	nodes []*LocalNode
	pool  *Pool
}

func newLocalStore(seed int64, opts HarnessOptions) (*core.Store, error) {
	workers := opts.Workers
	if workers == 0 {
		workers = 2
	}
	return core.NewStore(core.Config{
		Workers: workers, Strategy: core.StrategyCoRM, DataBacked: true,
		Remap:          core.RemapODPPrefetch,
		Model:          timing.Default().WithNIC(timing.ConnectX5()),
		Seed:           seed,
		Canaries:       opts.Canaries,
		MemBudgetBytes: opts.MemBudgetBytes,
		TierSpec:       opts.TierSpec,
	})
}

// SpinLocal starts n nodes on loopback and dials a pool to all of them
// (client timeouts tuned for fault testing: bounded call timeout, quick
// redial backoff).
func SpinLocal(n int, seed int64) (*LocalCluster, error) {
	return SpinLocalOptions(n, seed, HarnessOptions{})
}

// SpinLocalOptions is SpinLocal with per-node tuning — the soak harness
// uses it to enable canaries and bounded server queues.
func SpinLocalOptions(n int, seed int64, opts HarnessOptions) (*LocalCluster, error) {
	c := &LocalCluster{}
	for i := 0; i < n; i++ {
		store, err := newLocalStore(seed+int64(i), opts)
		if err != nil {
			c.Close()
			return nil, err
		}
		srv := rpc.NewServer(store)
		srv.SetQueueLimit(opts.QueueLimit)
		ts, err := transport.Listen("127.0.0.1:0", srv)
		if err != nil {
			srv.Close()
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, &LocalNode{
			store: store, rpc: srv, ts: ts, addr: ts.Addr(), seed: seed + int64(i), opts: opts,
		})
	}
	var ctxs []*client.Ctx
	for _, node := range c.nodes {
		ctx, err := client.CreateCtxOptions(node.addr, transport.Options{
			CallTimeout:    2 * time.Second,
			RedialAttempts: 3,
			RedialBase:     time.Millisecond,
			RedialMax:      10 * time.Millisecond,
			Seed:           1,
			Dialer:         opts.Dialer,
		})
		if err != nil {
			for _, cx := range ctxs {
				cx.Close()
			}
			c.Close()
			return nil, err
		}
		ctxs = append(ctxs, ctx)
	}
	c.pool = NewFromClients(ctxs)
	return c, nil
}

// Pool is the cluster's client-side pool.
func (c *LocalCluster) Pool() *Pool { return c.pool }

// Nodes reports the cluster size.
func (c *LocalCluster) Nodes() int { return len(c.nodes) }

// Node returns one harness node.
func (c *LocalCluster) Node(i int) *LocalNode { return c.nodes[i] }

// Close tears everything down.
func (c *LocalCluster) Close() {
	if c.pool != nil {
		c.pool.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
}
