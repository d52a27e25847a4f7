// Package client implements CoRM's client library: the Table 2 API.
//
//	ctx, _  := client.CreateCtx("host:port")       // or client.NewLocal(...)
//	addr, _ := ctx.Alloc(64)
//	ctx.Write(&addr, data)
//	ctx.Read(&addr, buf)        // RPC read, pointer correction transparent
//	ctx.DirectRead(&addr, buf)  // one-sided RDMA read, no remote CPU
//	ctx.ScanRead(&addr, buf)    // one-sided block scan (pointer correction)
//	ctx.ReleasePtr(&addr)       // release the old virtual address
//	ctx.Free(&addr)
//
// Every call that may correct the pointer updates it in place and reports
// the correction through addr's FlagIndirectObserved, implementing "CoRM
// always notifies the user if it uses an old pointer" (§3.3).
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"corm/internal/core"
	"corm/internal/rnic"
	"corm/internal/rpc"
	"corm/internal/transport"
)

// Backend abstracts how the context reaches the store: in-process or over
// a transport. Both calls are zero-copy: a response payload or a one-sided
// read's data aliases the returned lease, which the caller releases once
// done with it (a nil lease is valid and releases to nothing).
// transport.Conn implements it.
type Backend interface {
	CallLease(req rpc.Request) (rpc.Response, *transport.Lease, error)
	DirectReadLease(rkey uint32, vaddr uint64, n int) (*transport.Lease, []byte, error)
	Close() error
}

// dmaReconnector is the optional Backend facet that repairs a broken QP by
// re-establishing the one-sided channel (transport.Conn implements it; the
// local backend reconnects its simulated QP).
type dmaReconnector interface {
	ReconnectDMA() error
}

// poster is the optional Backend facet that posts a call instead of
// blocking on it: the request leaves from the caller's goroutine and its
// completion arrives later, on a channel of the caller's choosing
// (transport.Conn implements it). A post never dials; Connected reports
// whether it can go out now. A backend without it runs a posted call on a
// goroutine of its own.
type poster interface {
	PostCall(req rpc.Request, tag int, done chan<- transport.Completion) transport.Posted
	Response(r transport.Completion) (rpc.Response, *transport.Lease, error)
	Connected() bool
	CallTimeout() time.Duration
}

// Ctx is a client context bound to one CoRM node.
type Ctx struct {
	backend    Backend
	classes    []int
	blockBytes int
	mode       core.ConsistencyMode

	// RetryBackoff paces DirectRead retries on inconsistent objects
	// (§3.2.3); Retries bounds them.
	RetryBackoff time.Duration
	Retries      int

	// ConnRetries bounds how many times an *idempotent* operation (Read,
	// DirectRead, ScanRead, Info) is transparently re-issued across
	// transport reconnects and QP repairs. Non-idempotent operations
	// (Alloc, Write, Free, ReleasePtr) are never re-issued: a broken
	// channel cannot tell whether the server executed the lost request.
	ConnRetries int

	// AsyncWindow and AsyncMaxBatch tune ReadAsync/FetchAddAsync
	// coalescing: pending asynchronous operations flush as one OpBatch when
	// the window elapses or the batch fills, whichever is first.
	AsyncWindow   time.Duration
	AsyncMaxBatch int

	// The async queues (async.go).
	reads   batcher[asyncOp]
	atomics batcher[atomicOp]

	// tokenBase/tokenSeq mint the per-operation dedup tokens of the
	// pushdown mutations (atomic.go): a random base per context plus a
	// sequence, so tokens are unique across contexts without coordination.
	tokenBase uint64
	tokenSeq  atomic.Uint64
}

// CreateCtx connects to a remote CoRM node over TCP (Table 2's
// CreateCtx(ip, port)).
func CreateCtx(addr string) (*Ctx, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return New(conn)
}

// CreateCtxOptions connects over TCP with explicit transport options
// (deadlines, redial backoff, fault-injecting dialer).
func CreateCtxOptions(addr string, opts transport.Options) (*Ctx, error) {
	conn, err := transport.DialOptions(addr, opts)
	if err != nil {
		return nil, err
	}
	return New(conn)
}

// NewLocal builds a context over an in-process RPC server. One-sided reads
// go through a simulated QP on the store's NIC.
func NewLocal(srv *rpc.Server) (*Ctx, error) {
	return New(&localBackend{srv: srv, qp: srv.Store().ConnectClient()})
}

// New builds a context over any backend, fetching the store parameters.
// On failure the backend is closed.
func New(b Backend) (*Ctx, error) {
	c := &Ctx{
		backend:       b,
		RetryBackoff:  2 * time.Microsecond,
		Retries:       64,
		AsyncWindow:   50 * time.Microsecond,
		AsyncMaxBatch: 64,
		tokenBase:     rand.Uint64(),
	}
	// Fetched before ConnRetries is set: a backend that fails its first
	// call fails New rather than being retried.
	info, err := c.Info()
	if err != nil {
		b.Close()
		return nil, err
	}
	c.classes, c.blockBytes, c.mode = info.Classes, info.BlockBytes, info.Consistency
	c.ConnRetries = 3
	c.reads.init(c.flushReads)
	c.atomics.init(c.flushAtomics)
	return c, nil
}

// Close releases the context. Pending asynchronous operations resolve with
// an error instead of hanging their futures.
func (c *Ctx) Close() error {
	err := errors.New("client: context closed")
	c.reads.drain(err)
	c.atomics.drain(err)
	return c.backend.Close()
}

// scratchPool recycles the client's one-sided read buffers (stride- and
// block-sized) and batch marshalling scratch; allocating them per call
// costs an allocation per operation on the hottest paths. The pool stores
// *[]byte boxes (with the empty boxes themselves recycled) because putting
// a bare slice into a sync.Pool re-boxes its header on every Put.
var (
	scratchPool    = sync.Pool{} // holds *[]byte with a live backing array
	scratchBoxPool = sync.Pool{} // holds *[]byte awaiting reuse
)

// getScratch returns a pooled buffer of length n.
func getScratch(n int) []byte {
	if p, _ := scratchPool.Get().(*[]byte); p != nil {
		b := *p
		*p = nil
		scratchBoxPool.Put(p)
		if cap(b) >= n {
			return b[:n]
		}
	}
	c := n
	if c < 4096 {
		c = 4096
	}
	return make([]byte, n, c)
}

// putScratch recycles a buffer obtained from getScratch.
func putScratch(b []byte) {
	p, _ := scratchBoxPool.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b[:0]
	scratchPool.Put(p)
}

// connRetrySleep paces re-issues of an idempotent operation across
// transport faults: exponential from 1ms, so a flapping wire is not
// hammered by a tight re-issue loop (the transport's own redial backoff
// only covers dialing, not the re-submitted request).
func connRetrySleep(attempt int) {
	time.Sleep(time.Millisecond << attempt)
}

// callLease performs one RPC and returns the response plus the lease its
// payload aliases; the caller must Release the lease once done with the
// payload. An idempotent request is re-issued across transport reconnects,
// up to ConnRetries extra attempts: the transport re-dials broken channels
// itself (with backoff), this loop only re-submits the lost request.
func (c *Ctx) callLease(req rpc.Request, idempotent bool) (rpc.Response, *transport.Lease, error) {
	for attempt := 0; ; attempt++ {
		resp, lease, err := c.backend.CallLease(req)
		if err == nil || !idempotent || attempt >= c.ConnRetries || !transport.IsRetryable(err) {
			return resp, lease, err
		}
		clRetries.Inc()
		connRetrySleep(attempt)
	}
}

// leaseDirectRead issues one one-sided read returning a lease-backed view,
// re-issuing it across transport faults and repairing a broken QP.
func (c *Ctx) leaseDirectRead(rkey uint32, vaddr uint64, n int) (*transport.Lease, []byte, error) {
	for attempt := 0; ; attempt++ {
		lease, view, err := c.backend.DirectReadLease(rkey, vaddr, n)
		switch {
		case err == nil:
			return lease, view, nil
		case attempt >= c.ConnRetries:
			return nil, nil, err
		case isQPBroken(err):
			r, ok := c.backend.(dmaReconnector)
			if !ok {
				return nil, nil, err
			}
			if rerr := r.ReconnectDMA(); rerr != nil && !transport.IsRetryable(rerr) {
				return nil, nil, rerr
			}
			clQPReconnects.Inc()
		case !transport.IsRetryable(err):
			return nil, nil, err
		default:
			connRetrySleep(attempt)
		}
		clDMARetries.Inc()
	}
}

// isQPBroken matches a broken queue pair from either backend flavour.
func isQPBroken(err error) bool {
	return errors.Is(err, transport.ErrDMABroken) || errors.Is(err, rnic.ErrQPBroken)
}

// Info re-fetches the store parameters; it doubles as a health probe.
func (c *Ctx) Info() (rpc.Info, error) {
	resp, lease, err := c.callLease(rpc.Request{Op: rpc.OpInfo}, true)
	if err != nil {
		return rpc.Info{}, err
	}
	defer lease.Release()
	if resp.Status != rpc.StatusOK {
		return rpc.Info{}, fmt.Errorf("client: info failed: %v", resp.Status)
	}
	return rpc.UnmarshalInfo(resp.Payload)
}

// ClassSize returns the payload capacity of a pointer's size class.
func (c *Ctx) ClassSize(addr core.Addr) (int, error) {
	cls := int(addr.Class())
	if cls < 0 || cls >= len(c.classes) {
		return 0, core.ErrInvalidAddr
	}
	return c.classes[cls], nil
}

// Alloc allocates an object of the given size. Like every non-read RPC it
// rides the lease path: the response is parsed in the transport's receive
// buffer and only the 16-byte pointer crosses onto the heap.
func (c *Ctx) Alloc(size int) (core.Addr, error) {
	resp, lease, err := c.callLease(rpc.Request{Op: rpc.OpAlloc, Size: uint32(size)}, false)
	if err != nil {
		return core.Addr{}, err
	}
	e := resp.Status.Err()
	addr := resp.Addr
	lease.Release()
	if e != nil {
		return core.Addr{}, e
	}
	return addr, nil
}

// Free releases the object; the pointer is corrected in place first if it
// was indirect.
func (c *Ctx) Free(addr *core.Addr) error {
	resp, lease, err := c.callLease(rpc.Request{Op: rpc.OpFree, Addr: *addr}, false)
	return c.ack(addr, resp, lease, err)
}

// Read reads the object via RPC; pointer correction is transparent. Reads
// are idempotent, so they are re-issued across transport reconnects. The
// response payload stays in the transport's receive lease until the single
// copy into buf — no intermediate heap copy exists on this path.
func (c *Ctx) Read(addr *core.Addr, buf []byte) (int, error) {
	resp, lease, err := c.callLease(rpc.Request{Op: rpc.OpRead, Addr: *addr, Size: uint32(len(buf))}, true)
	if err != nil {
		return 0, err
	}
	if e := resp.Status.Err(); e != nil {
		lease.Release()
		return 0, e
	}
	c.adopt(addr, resp.Addr)
	n := copy(buf, resp.Payload)
	lease.Release()
	return n, nil
}

// Write updates the object via RPC. The empty response is parsed in the
// receive lease — no heap copy on the acknowledge path.
func (c *Ctx) Write(addr *core.Addr, payload []byte) error {
	resp, lease, err := c.callLease(rpc.Request{Op: rpc.OpWrite, Addr: *addr, Payload: payload}, false)
	return c.ack(addr, resp, lease, err)
}

// PostWrite posts a Write of payload to *addr from the caller's goroutine
// and returns without waiting: its completion arrives on done under tag
// (done must have room for it), and WriteDone finishes it. Like Write it is
// never re-issued, and it never dials: where CanPost reports false it
// completes at once with a transport error. The caller expires the write
// through the returned Posted once it has been open for PostTimeout. With
// a backend that cannot post, the Write runs on a goroutine of its own,
// which corrects *addr before it completes; its Posted is zero.
func (c *Ctx) PostWrite(addr *core.Addr, payload []byte, tag int, done chan<- transport.Completion) transport.Posted {
	if p, ok := c.backend.(poster); ok {
		return p.PostCall(rpc.Request{Op: rpc.OpWrite, Addr: *addr, Payload: payload}, tag, done)
	}
	go func() { done <- transport.Completion{Tag: tag, Err: c.Write(addr, payload)} }()
	return transport.Posted{}
}

// CanPost reports whether PostWrite can send now without a dial: true
// unless the backend posts and its connection has no live wire, which
// only a blocking call re-dials.
func (c *Ctx) CanPost() bool {
	p, ok := c.backend.(poster)
	return !ok || p.Connected()
}

// PostTimeout reports how long a posted Write may stay open before its
// poster expires it (0: never; a backend that cannot post bounds its own
// calls).
func (c *Ctx) PostTimeout() time.Duration {
	if p, ok := c.backend.(poster); ok {
		return p.CallTimeout()
	}
	return 0
}

// WriteDone is a posted Write's completion step: it decodes the reply
// (breaking the channel on a frame that does not decode), folds the
// server's pointer correction into *addr, and returns the store status.
func (c *Ctx) WriteDone(r transport.Completion, addr *core.Addr) error {
	p, ok := c.backend.(poster)
	if !ok {
		return r.Err // the Write ran on its own goroutine
	}
	resp, lease, err := p.Response(r)
	return c.ack(addr, resp, lease, err)
}

// ack is the acknowledge step of an op whose reply carries only a status
// and a corrected pointer: fold the correction into *addr, release the
// lease, return the store status.
func (c *Ctx) ack(addr *core.Addr, resp rpc.Response, lease *transport.Lease, err error) error {
	if err != nil {
		return err
	}
	c.adopt(addr, resp.Addr)
	e := resp.Status.Err()
	lease.Release()
	return e
}

// ReleasePtr tells the node that all copies of this pointer have been
// corrected; the pointer is rebased onto the object's current block
// (§3.3).
func (c *Ctx) ReleasePtr(addr *core.Addr) error {
	resp, lease, err := c.callLease(rpc.Request{Op: rpc.OpRelease, Addr: *addr}, false)
	if err != nil {
		return err
	}
	e := resp.Status.Err()
	na := resp.Addr
	lease.Release()
	if e != nil {
		return e
	}
	*addr = na
	return nil
}

// DirectRead performs a one-sided read with client-side validity checks,
// retrying inconsistent reads with backoff. ErrWrongObject surfaces to the
// caller, who picks the correction path (ScanRead or RPC Read). The raw
// slot is validated directly in the transport's registered receive buffer
// — the one-sided scratch copy is gone.
func (c *Ctx) DirectRead(addr *core.Addr, buf []byte) (int, error) {
	size, err := c.ClassSize(*addr)
	if err != nil {
		return 0, err
	}
	if len(buf) < size {
		return 0, core.ErrShortBuffer
	}
	stride := core.StrideOf(c.mode, size)
	for attempt := 0; ; attempt++ {
		lease, raw, err := c.leaseDirectRead(addr.RKey(), addr.VAddr(), stride)
		if err != nil {
			return 0, err
		}
		payload, err := core.ExtractObjectMode(c.mode, raw, addr.ID(), size)
		switch {
		case err == nil:
			n := copy(buf, payload)
			lease.Release()
			return n, nil
		case errors.Is(err, core.ErrInconsistent) && attempt < c.Retries:
			lease.Release()
			clInconsistentRetries.Inc()
			time.Sleep(c.RetryBackoff)
		default:
			lease.Release()
			return 0, err
		}
	}
}

// ScanRead reads the object's whole block one-sidedly and scans it for the
// ID, fixing the pointer's offset hint on success (§3.2.2). The block is
// scanned in the transport's receive lease, not a staging copy.
func (c *Ctx) ScanRead(addr *core.Addr, buf []byte) (int, error) {
	size, err := c.ClassSize(*addr)
	if err != nil {
		return 0, err
	}
	if len(buf) < size {
		return 0, core.ErrShortBuffer
	}
	base := addr.VAddr() &^ uint64(c.blockBytes-1)
	for attempt := 0; ; attempt++ {
		lease, raw, err := c.leaseDirectRead(addr.RKey(), base, c.blockBytes)
		if err != nil {
			return 0, err
		}
		idx, payload, err := core.ScanBlockMode(c.mode, raw, addr.ID(), size)
		switch {
		case err == nil:
			addr.SetVAddr(base + uint64(idx*core.StrideOf(c.mode, size)))
			addr.SetFlag(core.FlagIndirectObserved)
			n := copy(buf, payload)
			lease.Release()
			return n, nil
		case errors.Is(err, core.ErrInconsistent) && attempt < c.Retries:
			lease.Release()
			clInconsistentRetries.Inc()
			time.Sleep(c.RetryBackoff)
		default:
			lease.Release()
			return 0, err
		}
	}
}

// SmartRead is the composite read loop a CoRM application uses: DirectRead
// first, ScanRead when the pointer turns out to be indirect.
func (c *Ctx) SmartRead(addr *core.Addr, buf []byte) (int, error) {
	n, err := c.DirectRead(addr, buf)
	if errors.Is(err, core.ErrWrongObject) {
		// Counted here — once per fallback decision — not inside ScanRead,
		// whose internal retry loop would otherwise inflate the count.
		clScanFallbacks.Inc()
		return c.ScanRead(addr, buf)
	}
	return n, err
}

// adopt folds a server-corrected pointer back into the caller's copy.
func (c *Ctx) adopt(addr *core.Addr, corrected core.Addr) {
	if !corrected.IsZero() && corrected.VAddr() != addr.VAddr() {
		*addr = corrected
	} else if corrected.HasFlag(core.FlagIndirectObserved) {
		addr.SetFlag(core.FlagIndirectObserved)
	}
}

// localBackend adapts an in-process rpc.Server and a simulated QP.
type localBackend struct {
	srv *rpc.Server
	qp  *core.ClientQP
}

// CallLease serves the ops whose reply carries data (reads, batches,
// scans) in a pooled frame buffer: the server stages the reply there and it
// is decoded in place, so an in-process Read costs no allocation. A reply
// that outgrows the buffer moves to a fresh array the views keep alive; the
// lease then just recycles the unused buffer. Every other op answers with a
// struct and no payload worth pooling — framing and re-parsing it cost a
// Write 0.3 µs (churn_compact write_p50_us 2.19 → 2.51 in ten of ten
// pairs) — so those go through Submit, with no lease.
func (l *localBackend) CallLease(req rpc.Request) (rpc.Response, *transport.Lease, error) {
	switch req.Op {
	case rpc.OpRead, rpc.OpBatch, rpc.OpScan:
	default:
		return l.srv.Submit(req), nil, nil
	}
	lease := transport.PooledLease()
	resp, err := rpc.UnmarshalResponseView(l.srv.SubmitAppend(req, lease.Bytes()))
	if err != nil {
		lease.Release()
		return rpc.Response{}, nil, err
	}
	return resp, lease, nil
}

// DirectReadLease reads into a transient buffer: the simulated QP copies
// out of the store, so there is no registered receive memory to lend.
func (l *localBackend) DirectReadLease(rkey uint32, vaddr uint64, n int) (*transport.Lease, []byte, error) {
	buf := make([]byte, n)
	if _, err := l.qp.QP().Read(rkey, vaddr, buf); err != nil {
		return nil, nil, err
	}
	return transport.TransientLease(buf), buf, nil
}

// ReconnectDMA repairs the simulated QP after an error-state transition.
func (l *localBackend) ReconnectDMA() error {
	l.qp.QP().Reconnect()
	return nil
}

func (l *localBackend) Close() error {
	l.qp.Close()
	return nil
}
