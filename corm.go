// Package corm is a Go reproduction of CoRM (Compactable Remote Memory
// over RDMA, SIGMOD 2021): a distributed shared memory system that serves
// one-sided RDMA reads *and* compacts fragmented memory without breaking
// client pointers or RDMA connections.
//
// Since real RDMA hardware is unavailable to a pure-Go library, the RDMA
// substrate (RNIC with MTT, reliable QPs, ODP, registration keys) and the
// physical page layer (memfd-style frames, remappable page tables) are
// simulated in software with timing models calibrated to the paper; the
// CoRM algorithms themselves — the two-level allocator, the ID-based
// probabilistic compaction, pointer correction, and virtual address reuse
// — are fully functional. See DESIGN.md for the substitution map.
//
// # Quick start
//
//	srv, _ := corm.NewServer(corm.DefaultConfig())
//	defer srv.Close()
//	cli, _ := srv.ConnectLocal()
//	addr, _ := cli.Alloc(64)
//	cli.Write(&addr, payload)
//	cli.DirectRead(&addr, buf)  // one-sided read, no server CPU
//	srv.Compact()               // clients keep their pointers
//
// To run over TCP, use srv.ListenAndServe and corm.Connect.
package corm

import (
	"corm/internal/client"
	"corm/internal/cluster"
	"corm/internal/core"
	"corm/internal/rpc"
	"corm/internal/timing"
	"corm/internal/transport"
)

// Re-exported core types. Addr is the 128-bit CoRM pointer of Table 2.
type (
	Addr            = core.Addr
	Config          = core.Config
	Strategy        = core.Strategy
	RemapStrategy   = core.RemapStrategy
	CorrectionMode  = core.CorrectionMode
	CompactOptions  = core.CompactOptions
	CompactReport   = core.CompactReport
	CompactPlan     = core.CompactPlan
	MergePair       = core.MergePair
	Compactor       = core.Compactor
	CompactorConfig = core.CompactorConfig
	Policy          = core.Policy
	ThresholdPolicy = core.ThresholdPolicy
	AdaptivePolicy  = core.AdaptivePolicy
	StoreStats      = core.Stats
)

// Occ wraps an occupancy fraction for CompactOptions.MaxOccupancy (a
// pointer so an explicit 0 is distinguishable from the 0.9 default).
func Occ(v float64) *float64 { return core.Occ(v) }

// Compaction strategies (§3.1.2, §4.4).
const (
	StrategyNone   = core.StrategyNone
	StrategyCoRM   = core.StrategyCoRM
	StrategyCoRM0  = core.StrategyCoRM0
	StrategyMesh   = core.StrategyMesh
	StrategyHybrid = core.StrategyHybrid
)

// RDMA remapping strategies (§3.5).
const (
	RemapRereg       = core.RemapRereg
	RemapODP         = core.RemapODP
	RemapODPPrefetch = core.RemapODPPrefetch
)

// FlagIndirect marks a pointer the library had to correct (§3.3: "CoRM
// always notifies the user if it uses an old pointer").
const FlagIndirect = core.FlagIndirectObserved

// ConsistencyMode selects the one-sided read validation scheme (§4.2.1).
type ConsistencyMode = core.ConsistencyMode

// One-sided consistency schemes.
const (
	ConsistencyVersions = core.ConsistencyVersions
	ConsistencyChecksum = core.ConsistencyChecksum
)

// AutoTuner recommends per-class compaction labels (the §4.4 future-work
// auto-labeling strategy). See core.NewAutoTuner.
type AutoTuner = core.AutoTuner

// NewAutoTuner builds a class-labeling tuner over a server's store and
// attaches it, so every alloc/free feeds its churn counters.
func NewAutoTuner(srv *Server) *AutoTuner {
	t := core.NewAutoTuner(srv.Store())
	srv.Store().AttachTuner(t)
	return t
}

// Sentinel errors clients observe.
var (
	ErrNotFound     = core.ErrNotFound
	ErrWrongObject  = core.ErrWrongObject
	ErrInconsistent = core.ErrInconsistent
	ErrCompacting   = core.ErrCompacting
	ErrNoClass      = core.ErrNoClass
)

// DefaultConfig is the paper's main setup: 8 workers, 4 KiB blocks, 16-bit
// object IDs, ODP-prefetch remapping on a ConnectX-5, data-backed blocks.
func DefaultConfig() Config {
	return Config{
		Workers:    8,
		BlockBytes: 4096,
		Strategy:   core.StrategyCoRM,
		IDBits:     16,
		DataBacked: true,
		Remap:      core.RemapODPPrefetch,
		Model:      timing.Default().WithNIC(timing.ConnectX5()),
	}
}

// Server is one CoRM node: the store, its RPC worker pool, optionally a
// TCP listener, and optionally a background compactor.
type Server struct {
	store     *core.Store
	rpc       *rpc.Server
	tcp       *transport.Server
	compactor *core.Compactor
}

// serverOptions collects construction-time settings: config edits run
// before the store is built (so options can change Config fields like the
// memory budget), attach hooks after.
type serverOptions struct {
	cfgEdits []func(*Config)
	attach   func(*Server)
}

// ServerOption configures a Server at construction.
type ServerOption func(*serverOptions)

// WithBackgroundCompaction starts a background compactor on the node with
// the given service configuration (zero value = 50ms pace, threshold
// policy). The compactor stops when the server closes.
func WithBackgroundCompaction(cfg CompactorConfig) ServerOption {
	return func(o *serverOptions) {
		o.attach = func(s *Server) {
			s.compactor = core.NewCompactor(s.store, cfg)
		}
	}
}

// WithAdaptiveCompaction starts a background compactor driven by an
// AutoTuner-backed adaptive policy (§4.4 auto-labeling): hot classes are
// skipped, cold classes compacted aggressively, conflict-saturated classes
// back off. The tuner is attached to the store's alloc/free path.
func WithAdaptiveCompaction(cfg CompactorConfig) ServerOption {
	return func(o *serverOptions) {
		o.attach = func(s *Server) {
			tuner := core.NewAutoTuner(s.store)
			s.store.AttachTuner(tuner)
			cfg.Policy = core.NewAdaptivePolicy(tuner, cfg.MaxBlocks)
			s.compactor = core.NewCompactor(s.store, cfg)
		}
	}
}

// WithMemoryBudget caps the node's resident physical memory at bytes.
// Under pressure, cold blocks spill to the configured tier (compressed
// in-memory by default — see WithTier) and fault back in on access,
// letting the node oversubscribe RAM.
func WithMemoryBudget(bytes int64) ServerOption {
	return func(o *serverOptions) {
		o.cfgEdits = append(o.cfgEdits, func(c *Config) { c.MemBudgetBytes = bytes })
	}
}

// WithTier selects the spill backend for evicted blocks: "compressed"
// (in-memory deflate), "disk" or "disk:<dir>", or "off".
func WithTier(spec string) ServerOption {
	return func(o *serverOptions) {
		o.cfgEdits = append(o.cfgEdits, func(c *Config) { c.TierSpec = spec })
	}
}

// NewServer builds and starts a node (workers running, not yet listening).
func NewServer(cfg Config, opts ...ServerOption) (*Server, error) {
	var o serverOptions
	for _, opt := range opts {
		opt(&o)
	}
	for _, edit := range o.cfgEdits {
		edit(&cfg)
	}
	store, err := core.NewStore(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{store: store, rpc: rpc.NewServer(store)}
	if o.attach != nil {
		o.attach(s)
	}
	if s.compactor != nil {
		s.compactor.Start()
	}
	return s, nil
}

// Compactor returns the background compaction service, or nil if the
// server was built without one.
func (s *Server) Compactor() *Compactor { return s.compactor }

// Store exposes the underlying store for direct embedding, experiments,
// and compaction control.
func (s *Server) Store() *core.Store { return s.store }

// ListenAndServe starts serving the CoRM protocol on a TCP address
// (e.g. "127.0.0.1:7170"). It returns the bound address.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ts, err := transport.Listen(addr, s.rpc)
	if err != nil {
		return "", err
	}
	s.tcp = ts
	return ts.Addr(), nil
}

// ConnectLocal returns an in-process client context.
func (s *Server) ConnectLocal() (*Client, error) {
	return client.NewLocal(s.rpc)
}

// Compact runs the compaction policy across all size classes whose
// fragmentation ratio exceeds the threshold, with worker 0 as leader.
func (s *Server) Compact() CompactReport {
	return s.store.CompactAll(0, nil)
}

// CompactClass compacts one size class explicitly.
func (s *Server) CompactClass(opts CompactOptions) CompactReport {
	return s.store.CompactClass(opts)
}

// ActiveBytes reports the node's active physical memory.
func (s *Server) ActiveBytes() int64 { return s.store.ActiveBytes() }

// Stats snapshots store counters.
func (s *Server) Stats() StoreStats { return s.store.Stats() }

// Close shuts the node down, draining the background compactor first and
// releasing tiering resources (disk spill files) last.
func (s *Server) Close() {
	if s.compactor != nil {
		s.compactor.Stop()
	}
	if s.tcp != nil {
		s.tcp.Close()
	}
	s.rpc.Close()
	s.store.Close()
}

// Client is a CoRM client context implementing the Table 2 API, plus the
// batched extensions: MultiRead/MultiWrite/MultiAlloc/MultiFree pack many
// operations into one round trip, and ReadAsync returns a Future whose
// reads coalesce automatically.
type Client = client.Ctx

// OpResult is the per-sub-operation outcome of a batched (Multi*) call.
type OpResult = client.OpResult

// Future resolves to the outcome of one asynchronous read (Client.ReadAsync).
type Future = client.Future

// Near-data compute (server-side pushdown) types: ScanWhere matches, RMW
// batch operations and results, and the future returned by FetchAddAsync.
type (
	ScanMatch    = client.ScanMatch
	RMWOp        = client.RMWOp
	RMWResult    = client.RMWResult
	AtomicFuture = client.AtomicFuture
)

// RMW operation kinds for Client.RMW.
const (
	RMWCas       = client.RMWCas
	RMWFetchAdd  = client.RMWFetchAdd
	RMWCondWrite = client.RMWCondWrite
)

// ScanWhere predicates, evaluated server-side at a byte offset.
const (
	PredEq    = rpc.PredEq
	PredNe    = rpc.PredNe
	PredLtU64 = rpc.PredLtU64
	PredGtU64 = rpc.PredGtU64
)

// Conditional-write modes (Client.PutIf / PutIfAbsent use these under the
// hood; RMWOp.Mode takes them directly).
const (
	CondIfVersion = rpc.CondIfVersion
	CondIfAbsent  = rpc.CondIfAbsent
)

// ErrConflict reports a pushdown condition that did not hold: a CAS whose
// old value mismatched, a PutIf against a moved version, a PutIfAbsent on
// an already-written object. Nothing was applied.
var ErrConflict = core.ErrConflict

// ErrCorruption reports a memory-safety canary violation: a slot's guard
// bytes were overwritten (detected on read, free, or compaction copy when
// the store runs with Config.Canaries).
var ErrCorruption = core.ErrCorruption

// Connect opens a client context to a remote CoRM node over TCP.
func Connect(addr string) (*Client, error) {
	return client.CreateCtx(addr)
}

// Multi-node deployment: a Pool spans several CoRM nodes with least-loaded
// placement; KV adds rendezvous-hashed string keys on top, optionally
// replicated across each key's top-k rendezvous nodes with write-concern
// acks, ordered read failover, and read repair.
type (
	Pool              = cluster.Pool
	GlobalAddr        = cluster.GlobalAddr
	KV                = cluster.KV
	ReplicationConfig = cluster.ReplicationConfig
	Replicator        = cluster.Replicator
	ReplicatorConfig  = cluster.ReplicatorConfig
	RepairReport      = cluster.RepairReport
	NodeError         = cluster.NodeError
)

// Cluster-layer sentinel errors.
var (
	ErrNodeDown     = cluster.ErrNodeDown
	ErrWriteConcern = cluster.ErrWriteConcern
	ErrNoReplica    = cluster.ErrNoReplica
	ErrStaleReplica = cluster.ErrStaleReplica
	// ErrThrottled marks an operation shed by overload control — either
	// a per-tenant admission cap or a node's bounded request queue. It
	// is backpressure, not failure: back off and retry.
	ErrThrottled = cluster.ErrThrottled
)

// Overload-control types: per-tenant token-bucket admission and the
// client-side bucket primitive.
type (
	Admission     = cluster.Admission
	ThrottleError = cluster.ThrottleError
	TokenBucket   = client.TokenBucket
)

// NewAdmission builds an empty per-tenant admission controller; tenants
// without a configured cap are admitted unconditionally.
func NewAdmission() *Admission { return cluster.NewAdmission() }

// NewTokenBucket builds a client-side rate limiter admitting ratePerSec
// operations per second with the given burst. ratePerSec <= 0 means
// unlimited.
func NewTokenBucket(ratePerSec float64, burst int) *TokenBucket {
	return client.NewTokenBucket(ratePerSec, burst)
}

// DialCluster connects a pool to every node address.
func DialCluster(addrs []string) (*Pool, error) { return cluster.Dial(addrs) }

// NewKV builds a keyed store over a pool.
func NewKV(pool *Pool) *KV { return cluster.NewKV(pool) }

// NewReplicatedKV builds a keyed store that keeps k copies of every key
// on its top-k rendezvous nodes, acking writes after cfg.WriteConcern
// replica writes succeed and failing reads over down the replica set.
func NewReplicatedKV(pool *Pool, cfg ReplicationConfig) *KV {
	return cluster.NewReplicatedKV(pool, cfg)
}

// NewReplicator builds the background re-replication service for a
// replicated KV: a paced repair loop over the KV's under-replicated keys
// that wakes immediately when a down node's breaker closes. Call Start.
func NewReplicator(kv *KV, cfg ReplicatorConfig) *Replicator {
	return cluster.NewReplicator(kv, cfg)
}

// AsNodeError extracts the failing node's identity from a cluster error.
func AsNodeError(err error) (*NodeError, bool) { return cluster.AsNodeError(err) }
