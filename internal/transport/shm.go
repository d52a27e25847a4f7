// Shared-memory fast path. When a client dials an address that a Server
// in the same process is listening on, the socket is pointless: both ends
// share an address space, so frames can travel over an in-memory ring —
// the intra-host analogue of RDMA loopback, where the NIC is bypassed and
// transfers become memcpys between registered regions.
//
// Selection is automatic and conservative: only addresses registered by
// transport.Listen participate (a Server given a pre-made — possibly
// fault-wrapped — listener via Serve keeps its wire exactly as supplied),
// and a Conn dialed with a custom Dialer or DisableSharedMemory always
// uses TCP, so fault-injection harnesses observe every byte they expect.
//
// Each channel (RPC or DMA) gets its own endpoint: a pair of fixed-depth
// single-producer single-consumer rings, one per direction. Producers and
// consumers synchronize on atomic head/tail counters (acquire/release
// pairs, race-detector clean) and park on capacity-1 notify channels when
// the ring is full or empty. Failure semantics match TCP: closing either
// side poisons the endpoint, the serve loop and demux reader unblock with
// an error, pending calls fail with ErrConnBroken, and redial — which
// re-resolves the registry — reconnects if the server re-listens.
package transport

import (
	"errors"
	"sync"
	"sync/atomic"

	"corm/internal/rnic"
)

// shmRegistry maps listen addresses to live in-process servers. Listen
// registers, Close unregisters; Dial consults it unless opted out.
var shmRegistry = struct {
	mu sync.Mutex
	m  map[string]*Server
}{m: make(map[string]*Server)}

func registerSHM(addr string, s *Server) {
	shmRegistry.mu.Lock()
	shmRegistry.m[addr] = s
	shmRegistry.mu.Unlock()
}

// unregisterSHM removes the mapping only if it still points at s — a
// restarted server on the same address must not be torn out by the old
// incarnation's Close.
func unregisterSHM(addr string, s *Server) {
	shmRegistry.mu.Lock()
	if shmRegistry.m[addr] == s {
		delete(shmRegistry.m, addr)
	}
	shmRegistry.mu.Unlock()
}

func lookupSHM(addr string) *Server {
	shmRegistry.mu.Lock()
	s := shmRegistry.m[addr]
	shmRegistry.mu.Unlock()
	return s
}

// errSHMClosed reports a push/pop on a poisoned endpoint; callers wrap it
// in ErrConnBroken (client) or treat it as EOF (server loop).
var errSHMClosed = errors.New("transport: shared-memory ring closed")

// shmRingDepth is the slot count per direction — the emulated queue-pair
// depth. Deeper than maxInflight so the pipeline never parks on the ring.
const shmRingDepth = 128

type shmSlot struct {
	seq  uint64
	body []byte // frame-pool buffer, ownership travels with the slot
}

// shmRing is a single-producer single-consumer frame ring. The producer
// writes a slot then releases it with tail.Add; the consumer acquires via
// tail.Load and hands the slot back with head.Add. Both park on notify
// channels when out of work or space, and a closed done channel (shared
// with the sibling ring of the endpoint) unblocks everyone.
type shmRing struct {
	slots [shmRingDepth]shmSlot
	head  atomic.Uint64 // next slot to consume
	tail  atomic.Uint64 // next slot to fill

	pmu   sync.Mutex // serializes producers (many senders, one consumer)
	data  chan struct{}
	space chan struct{}
	done  chan struct{}
}

func newSHMRing(done chan struct{}) *shmRing {
	return &shmRing{
		data:  make(chan struct{}, 1),
		space: make(chan struct{}, 1),
		done:  done,
	}
}

// push enqueues one frame, taking ownership of body (a frame-pool buffer).
// Blocks while the ring is full; fails once the endpoint is poisoned.
func (r *shmRing) push(seq uint64, body []byte) error {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	for {
		t := r.tail.Load()
		if t-r.head.Load() < shmRingDepth {
			s := &r.slots[t%shmRingDepth]
			s.seq = seq
			s.body = body
			r.tail.Store(t + 1)
			select {
			case r.data <- struct{}{}:
			default:
			}
			mSHMFrames.Inc()
			return nil
		}
		select {
		case <-r.space:
		case <-r.done:
			putFrameBuf(body)
			return errSHMClosed
		}
	}
}

// pop dequeues one frame, transferring body ownership to the caller.
// Blocks while the ring is empty; fails once the endpoint is poisoned and
// drained (in-flight frames are still delivered, like bytes already in a
// socket buffer).
func (r *shmRing) pop() (uint64, []byte, error) {
	for {
		h := r.head.Load()
		if h < r.tail.Load() {
			s := &r.slots[h%shmRingDepth]
			seq, body := s.seq, s.body
			s.body = nil
			r.head.Store(h + 1)
			select {
			case r.space <- struct{}{}:
			default:
			}
			return seq, body, nil
		}
		select {
		case <-r.data:
		case <-r.done:
			// Drain residue posted before the close.
			if r.head.Load() < r.tail.Load() {
				continue
			}
			return 0, nil, errSHMClosed
		}
	}
}

// shmEndpoint is one channel's bidirectional shared-memory link: a ring
// per direction plus the shared poison switch.
type shmEndpoint struct {
	c2s, s2c *shmRing
	done     chan struct{}
	once     sync.Once
}

func newSHMEndpoint() *shmEndpoint {
	done := make(chan struct{})
	return &shmEndpoint{c2s: newSHMRing(done), s2c: newSHMRing(done), done: done}
}

// close poisons both directions; idempotent.
func (ep *shmEndpoint) close() {
	ep.once.Do(func() { close(ep.done) })
}

// shmSource / shmSink adapt one ring direction to the serve-loop
// interfaces. The source copies each frame into a registered ring lease —
// the same landing discipline as the TCP reader — and recycles the slot
// buffer.
type shmSource struct {
	ring *shmRing
	bufs *BufRing
}

func (s *shmSource) next() (uint64, *Lease, []byte, error) {
	seq, body, err := s.ring.pop()
	if err != nil {
		return 0, nil, nil, err
	}
	lease := s.bufs.Get(len(body))
	view := lease.Bytes()[:len(body)]
	copy(view, body)
	putFrameBuf(body)
	mFramesIn.Inc()
	return seq, lease, view, nil
}

type shmSink struct{ ring *shmRing }

func (s *shmSink) send(seq uint64, body []byte, owned bool) error {
	if !owned {
		body = append(getFrameBuf(0), body...)
	}
	mFramesOut.Inc()
	return s.ring.push(seq, body)
}

// dialSHM attaches a new in-process channel of the given kind to the
// server, spawning its serve loop. Returns nil if the server is closed —
// the dialer then falls back to TCP, which fails with the same connection
// refused a dead remote would give.
func (s *Server) dialSHM(kind byte) *shmEndpoint {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	ep := newSHMEndpoint()
	s.shm[ep] = true
	s.wg.Add(1)
	s.mu.Unlock()
	mSHMConns.Inc()
	// The DMA channel's QP is connected before the dial returns, so it
	// exists as soon as the client holds the channel.
	var qp *rnic.QP
	if kind == chanDMA {
		qp = s.rpc.Store().NIC().Connect()
	}
	go func() {
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.shm, ep)
			s.mu.Unlock()
			ep.close()
		}()
		src := &shmSource{ring: ep.c2s, bufs: newBufRing()}
		sink := &shmSink{ring: ep.s2c}
		switch kind {
		case chanRPC:
			s.serveRPCLoop(src, sink)
		case chanDMA:
			s.serveDMALoop(src, sink, qp)
		}
	}()
	return ep
}
