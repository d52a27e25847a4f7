// Registered receive-buffer rings. A real RDMA QP never reads into
// freshly allocated memory: the application pre-posts registered receive
// buffers and the NIC DMA-writes incoming messages into them; ownership of
// a filled buffer passes to the application and returns to the ring when
// the completion is consumed. NP-RDMA (PAPERS.md) argues for exactly this
// disciplined ring management instead of ad-hoc per-message allocation.
//
// BufRing is that discipline for the emulated wire: a fixed population of
// recycled, size-classed buffers. The demux reader fills a leased buffer
// in place (one read syscall lands the frame directly in "registered"
// memory) and hands the payload view to the waiting caller; the caller
// releases the lease once it has decoded or copied what it needs, which
// re-posts the buffer. The population per class is bounded — when a burst
// outruns the ring (the software analogue of receiver-not-ready), the
// overflow is served by transient unpooled buffers and counted, never
// blocked on.
package transport

import (
	"sync"
	"sync/atomic"
)

// ringClassSpec fixes the size classes of every BufRing: a small class for
// RPC responses and object-stride DMA reads, a middle class for batch
// responses, and a block class for one-sided ScanRead block fetches.
// Frames beyond the block class (up to maxFrame) are transient.
var ringClassSpec = []struct {
	size  int
	depth int
}{
	{4 << 10, 128},
	{64 << 10, 32},
	{(1 << 20) + 4096, 4},
}

// Lease is one registered receive buffer checked out of a BufRing. The
// demux reader fills it in place and hands views of it to callers; Release
// re-posts the buffer to its ring. Retain/Release form a refcount so a
// view can outlive the frame that delivered it (batch decodes, staged
// copies); the buffer re-posts when the last holder releases.
type Lease struct {
	ring   *BufRing
	cls    int  // class index; -1 = transient (never re-posted)
	pooled bool // frame-pool buffer: recycled via putFrameBuf on release
	refs   atomic.Int32
	b      []byte
}

// leasePool recycles the Lease objects wrapped around pooled frame
// buffers, which otherwise cost one allocation per shared-memory frame.
// Ring leases (cls >= 0) are long-lived and never enter this pool.
var leasePool = sync.Pool{New: func() any { return new(Lease) }}

// newPooledLease wraps a frame-pool buffer in a lease; the final Release
// returns the buffer with putFrameBuf and recycles the lease itself. The
// shared-memory reader uses this so slot buffers travel to callers without
// a landing copy.
func newPooledLease(b []byte) *Lease {
	l := leasePool.Get().(*Lease)
	l.ring = nil
	l.cls = -1
	l.pooled = true
	l.b = b
	l.refs.Store(1)
	return l
}

// PooledLease leases an empty frame-pool buffer (one frame class of
// capacity), for code that builds a response in process and hands it to
// lease-based consumers — the client's in-process backend appends the
// server's reply onto Bytes(). The final Release recycles the buffer and
// the lease, so a steady caller allocates nothing.
func PooledLease() *Lease { return newPooledLease(getFrameBuf(0)) }

// TransientLease wraps an ordinary buffer in a lease, for code that feeds
// lease-based consumers from non-ring sources (local backends, test
// doubles). The final Release simply drops the buffer.
func TransientLease(b []byte) *Lease {
	l := &Lease{cls: -1, b: b}
	l.refs.Store(1)
	return l
}

// Bytes exposes the full backing buffer (class-size capacity).
func (l *Lease) Bytes() []byte { return l.b }

// Retain adds a holder; every Retain needs a matching Release.
func (l *Lease) Retain() {
	if l != nil {
		l.refs.Add(1)
	}
}

// Release drops one holder; the last release re-posts the buffer to its
// ring. Nil leases are tolerated so error paths need no guards.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	n := l.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("transport: buffer lease over-released")
	}
	if l.cls >= 0 {
		// Never blocks: at most `depth` leases of a class exist and the
		// channel holds exactly that many.
		l.ring.classes[l.cls].ch <- l
	} else if l.pooled {
		putFrameBuf(l.b)
		l.b = nil
		l.pooled = false
		leasePool.Put(l)
	}
}

type ringClass struct {
	size   int
	ch     chan *Lease
	posted atomic.Int32 // buffers created so far, capped at depth
	depth  int32
}

// BufRing is a per-connection set of size-classed receive rings. Buffers
// are posted lazily up to each class's depth, so an idle connection costs
// almost nothing and a busy one converges on a fixed registered footprint.
type BufRing struct {
	classes []ringClass
}

// newBufRing builds the standard three-class ring.
func newBufRing() *BufRing {
	r := &BufRing{classes: make([]ringClass, len(ringClassSpec))}
	for i, spec := range ringClassSpec {
		r.classes[i].size = spec.size
		r.classes[i].depth = int32(spec.depth)
		r.classes[i].ch = make(chan *Lease, spec.depth)
	}
	return r
}

// Get leases a buffer of capacity ≥ n from the smallest fitting class,
// posting a fresh buffer if the class has headroom, or falling back to a
// transient buffer when the ring is exhausted (or n exceeds every class).
func (r *BufRing) Get(n int) *Lease {
	for i := range r.classes {
		c := &r.classes[i]
		if n > c.size {
			continue
		}
		select {
		case l := <-c.ch:
			l.refs.Store(1)
			mRingLeases.Inc()
			return l
		default:
		}
		if p := c.posted.Add(1); p <= c.depth {
			l := &Lease{ring: r, cls: i, b: make([]byte, c.size)}
			l.refs.Store(1)
			mRingLeases.Inc()
			return l
		}
		c.posted.Add(-1)
		break // class exhausted: transient overflow, not a larger class
	}
	mRingOverflows.Inc()
	l := &Lease{cls: -1, b: make([]byte, n)}
	l.refs.Store(1)
	return l
}
