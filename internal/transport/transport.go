// Package transport carries the CoRM protocol over TCP, so the system runs
// as genuinely distributed processes. Two channel types exist, mirroring
// the hardware split the paper relies on:
//
//   - RPC channels feed the store's shared RPC queue; worker threads serve
//     them (§2.2.2).
//   - DMA channels emulate one-sided RDMA: block memory is read directly
//     through a simulated QP, never touching the worker pool or taking
//     object locks. Consistency checking stays on the client, exactly as
//     with real one-sided reads.
//
// Both channel types are multiplexed, like verbs on a real QP: every frame
// carries a sequence ID, the client keeps a pending-call map and a demux
// reader goroutine per channel, and the server dispatches frames to bounded
// concurrent handlers. N client goroutines sharing one Conn therefore get N
// overlapping requests in flight instead of lock-stepping on one.
//
// Framing is length-prefixed: a 12-byte header (4-byte little-endian length
// covering the rest of the frame, then an 8-byte sequence ID) followed by
// the body. Responses echo the request's sequence ID; bodies on one channel
// may be answered out of order.
//
// The wire path is zero-copy end to end (DESIGN.md §13): senders enqueue
// header+body vectors on a scatter-gather frame writer that hands whole
// batches to writev without a concatenating memcpy, readers land frames in
// registered buffer-ring leases (ring.go) whose payload views travel up to
// the caller, and co-located client/server pairs skip the socket entirely
// over a shared-memory ring (shm.go).
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"corm/internal/rnic"
	"corm/internal/rpc"
)

// Channel handshake bytes.
const (
	chanRPC = 'R'
	chanDMA = 'D'
)

// maxFrame bounds a frame body (blocks are at most 1 MiB; allow headroom).
const maxFrame = 8 << 20

// frameSeqBytes is the sequence-ID portion of the frame header.
const frameSeqBytes = 8

// frameHdrBytes is the full frame header: length prefix + sequence ID.
const frameHdrBytes = 4 + frameSeqBytes

// maxInflight bounds concurrent request dispatch per server connection —
// the emulated queue depth of one QP. Frames beyond it wait in the reader.
const maxInflight = 64

// Frame-buffer pools, size-classed. A single pool with a 4 KiB seed had a
// footgun: a buffer that grew past its seed (a block-sized DMA response, a
// giant batch) was returned at its grown size and pinned there forever, so
// a burst of large frames permanently inflated the pool. Buffers now
// recycle within the largest class their capacity fills, and anything
// beyond maxPooledFrame is dropped on put — oversized frames are transient
// by design.
var frameClasses = [...]int{4 << 10, 64 << 10, (1 << 20) + 4096}

// maxPooledFrame caps the capacity putFrameBuf will recycle.
const maxPooledFrame = (1 << 20) + 4096

var framePools = [len(frameClasses)]sync.Pool{}

// frameBoxPool recycles the *[]byte boxes that carry slices in and out of
// framePools: storing a raw []byte in a sync.Pool re-boxes the slice
// header on every Put — one hidden allocation per recycled frame, which
// dominates the per-op alloc budget at wire rates — while a pointer
// converts to interface{} without allocating.
var frameBoxPool = sync.Pool{New: func() any { return new([]byte) }}

// framePutClass routes a buffer capacity to the pool that should receive
// it on put: the largest class the capacity covers, or -1 to drop.
func framePutClass(c int) int {
	if c > maxPooledFrame {
		return -1
	}
	for i := len(frameClasses) - 1; i > 0; i-- {
		if c >= frameClasses[i] {
			return i
		}
	}
	return 0
}

// getFrameBuf returns a pooled buffer of length n.
func getFrameBuf(n int) []byte {
	cls := -1
	for i := range frameClasses {
		if n <= frameClasses[i] {
			cls = i
			break
		}
	}
	if cls < 0 {
		return make([]byte, n)
	}
	if p, _ := framePools[cls].Get().(*[]byte); p != nil {
		b := *p
		*p = nil
		frameBoxPool.Put(p)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n, frameClasses[cls])
}

// putFrameBuf recycles a buffer obtained from getFrameBuf. Buffers that
// grew beyond the largest class are dropped, keeping pool memory bounded
// after a large-frame burst.
func putFrameBuf(b []byte) {
	cls := framePutClass(cap(b))
	if cls < 0 {
		mFrameDrops.Inc()
		return
	}
	p := frameBoxPool.Get().(*[]byte)
	*p = b[:0]
	framePools[cls].Put(p)
}

// appendFrame appends one encoded frame (header + body) to dst.
func appendFrame(dst []byte, seq uint64, body []byte) []byte {
	var hdr [frameHdrBytes]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)+frameSeqBytes))
	binary.LittleEndian.PutUint64(hdr[4:], seq)
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// writeFrame sends one frame — 12-byte header (length+seq) and body — in a
// single write. Production paths go through frameWriter (which coalesces
// concurrent frames); this helper serves tests and hand-crafted streams.
func writeFrame(w io.Writer, seq uint64, body []byte) error {
	frame := appendFrame(getFrameBuf(0), seq, body)
	_, err := w.Write(frame)
	putFrameBuf(frame)
	return err
}

// inlineFrame is the body size at or below which a frame is copied into
// the header arena instead of referenced as its own vector. Small copies
// are cheaper than extra iovec entries, and inlined frames that land back
// to back in the arena coalesce into a single contiguous vector — so a
// batch of small frames still costs one write. Large bodies ride their own
// vector untouched: that is the zero-copy path.
const inlineFrame = 256

// arenaChunk sizes the header arena. A full chunk is simply replaced; the
// old one stays alive through the vectors that reference it until the
// batch is written and reset.
const arenaChunk = 32 << 10

// wbatch is one writev batch under construction: the iovec list, the
// header/inline arena its small vectors point into, and the pooled bodies
// the writer owns and must release once the batch is on the wire.
type wbatch struct {
	vecs   net.Buffers
	arena  []byte
	owned  [][]byte // pooled large bodies, released after the write
	frames int
	bytes  int64

	tailArena bool // vecs tail points into arena and can be extended
	tailStart int  // arena offset where that tail vector begins
}

// grow makes room for n contiguous arena bytes, starting a fresh chunk if
// the current one is full (previous vectors keep the old chunk alive).
func (b *wbatch) grow(n int) {
	if cap(b.arena)-len(b.arena) < n {
		c := arenaChunk
		if n > c {
			c = n
		}
		b.arena = make([]byte, 0, c)
		b.tailArena = false
	}
}

// appendArena copies raw bytes into the arena, extending the tail vector
// when the bytes land contiguously after it.
func (b *wbatch) appendArena(p []byte) {
	b.grow(len(p))
	start := len(b.arena)
	b.arena = append(b.arena, p...)
	if b.tailArena {
		b.vecs[len(b.vecs)-1] = b.arena[b.tailStart:len(b.arena)]
	} else {
		b.vecs = append(b.vecs, b.arena[start:len(b.arena)])
		b.tailStart = start
		b.tailArena = true
	}
	b.bytes += int64(len(p))
}

// appendFrame enqueues one frame. Bodies at or below inlineFrame are
// copied into the arena behind their header (and released immediately if
// owned); larger bodies become their own zero-copy vector, retained until
// the batch is written.
func (b *wbatch) appendFrame(seq uint64, body []byte, owned bool) {
	var hdr [frameHdrBytes]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)+frameSeqBytes))
	binary.LittleEndian.PutUint64(hdr[4:], seq)
	if len(body) <= inlineFrame {
		b.grow(frameHdrBytes + len(body))
		b.appendArena(hdr[:])
		b.appendArena(body)
		if owned {
			putFrameBuf(body)
		}
	} else {
		b.appendArena(hdr[:])
		b.vecs = append(b.vecs, body)
		b.tailArena = false
		b.bytes += int64(len(body))
		if owned {
			b.owned = append(b.owned, body)
		}
	}
	b.frames++
}

// reset releases owned bodies and clears the batch for reuse.
func (b *wbatch) reset() {
	for i, o := range b.owned {
		putFrameBuf(o)
		b.owned[i] = nil
	}
	b.owned = b.owned[:0]
	b.vecs = b.vecs[:0]
	b.arena = b.arena[:0]
	b.frames = 0
	b.bytes = 0
	b.tailArena = false
}

// frameWriter coalesces frames from concurrent senders into batched
// scatter-gather writes — the group-commit trick that makes a deep
// pipeline pay off: under load, one writev carries many frames. Senders
// enqueue header+body vectors (no concatenating memcpy; small bodies are
// inlined into a fixed header arena, large ones ride as their own iovec)
// and the first sender whose enqueue finds no flusher running becomes the
// flusher, handing whole batches to net.Buffers.WriteTo until the queue is
// empty. Senders do not wait for their bytes to hit the wire: a write
// fault is delivered through onErr (once), which the owner uses to poison
// the channel and fail every pending call.
type frameWriter struct {
	conn  net.Conn
	onErr func(error)

	mu       sync.Mutex
	cur      *wbatch
	spare    *wbatch
	kind     byte // pending channel-kind handshake byte; folded into the first flush
	flushing bool
	err      error
}

// newFrameWriter builds a writer; a nonzero kind is the dial-time channel
// handshake byte, prepended to the first flushed batch so connection setup
// costs zero extra syscalls.
func newFrameWriter(conn net.Conn, kind byte, onErr func(error)) *frameWriter {
	return &frameWriter{conn: conn, kind: kind, onErr: onErr}
}

// send enqueues one frame and flushes if no other sender is already doing
// so. It returns an error only if the writer has already failed. If owned,
// the writer takes ownership of body (a getFrameBuf buffer) and returns it
// to the pool once the batch is written — the caller must not touch it
// after send. Unowned bodies above inlineFrame are cloned, so stack
// buffers are always safe to pass.
func (fw *frameWriter) send(seq uint64, body []byte, owned bool) error {
	if !owned && len(body) > inlineFrame {
		body = append(getFrameBuf(0), body...)
		owned = true
	}
	fw.mu.Lock()
	if fw.err != nil {
		err := fw.err
		fw.mu.Unlock()
		if owned {
			putFrameBuf(body)
		}
		return err
	}
	if fw.cur == nil {
		fw.cur = &wbatch{}
	}
	if fw.kind != 0 {
		fw.cur.appendArena([]byte{fw.kind})
		fw.kind = 0
	}
	fw.cur.appendFrame(seq, body, owned)
	mFramesOut.Inc()
	if fw.flushing {
		fw.mu.Unlock()
		return nil
	}
	fw.flushing = true
	fw.mu.Unlock()
	fw.flush()
	return nil
}

// flush drains the queue until empty, batching whatever concurrent senders
// appended since the last write.
func (fw *frameWriter) flush() {
	for {
		// Let runnable senders append before the batch is taken: one
		// scheduler pass here routinely turns N single-frame writes into one
		// N-frame writev, and when nothing else is runnable it costs almost
		// nothing. Syscalls dominate the pipelined hot path, so batch size —
		// not latency — is what this path optimizes for.
		runtime.Gosched()
		fw.mu.Lock()
		if fw.err != nil || fw.cur == nil || fw.cur.frames == 0 {
			fw.flushing = false
			fw.mu.Unlock()
			return
		}
		b := fw.cur
		fw.cur = fw.spare
		fw.spare = nil
		fw.mu.Unlock()

		frames, bytes, nvecs := b.frames, b.bytes, len(b.vecs)
		// WriteTo consumes the vector list with writev when the conn
		// supports it (one syscall for the whole batch) and per-vector
		// writes otherwise — which is exactly where the fault injector can
		// cut a batch mid-vector. It advances the slice as it goes, so the
		// full-capacity header is saved and restored — handing it a local
		// copy instead would heap-allocate a fresh slice every flush.
		back := b.vecs
		_, err := (&b.vecs).WriteTo(fw.conn)
		b.vecs = back
		b.reset()
		if err == nil {
			mFlushes.Inc()
			mFramesPerFlush.Observe(int64(frames))
			mVecsPerFlush.Observe(int64(nvecs))
			mBytesOut.Add(bytes)
		}

		fw.mu.Lock()
		if fw.spare == nil {
			fw.spare = b
		}
		if err != nil && fw.err == nil {
			fw.err = err
			fw.flushing = false
			fw.mu.Unlock()
			fw.conn.Close()
			if fw.onErr != nil {
				fw.onErr(err)
			}
			return
		}
		fw.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// decodeFrameHeader validates a frame header, returning the body length.
func decodeFrameHeader(hdr []byte) (seq uint64, n int, err error) {
	ln := binary.LittleEndian.Uint32(hdr)
	if ln < frameSeqBytes {
		return 0, 0, fmt.Errorf("transport: frame of %d bytes lacks a sequence ID", ln)
	}
	if ln > maxFrame {
		return 0, 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", ln)
	}
	return binary.LittleEndian.Uint64(hdr[4:]), int(ln) - frameSeqBytes, nil
}

// readFrame receives one frame, returning its sequence ID and body. The
// body is drawn from the frame pool; hand it back with putFrameBuf once
// decoded. Production readers use readFrameRing (registered buffers); this
// helper serves tests and the fuzz round-trip oracle.
func readFrame(r io.Reader) (uint64, []byte, error) {
	var hdr [frameHdrBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	seq, n, err := decodeFrameHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	body := getFrameBuf(n)
	if _, err := io.ReadFull(r, body); err != nil {
		putFrameBuf(body)
		return 0, nil, err
	}
	mFramesIn.Inc()
	return seq, body, nil
}

// readFrameRing receives one frame into a registered buffer leased from
// ring — the emulated posted receive: the body lands in recycled ring
// memory, filled in place, and the returned view aliases the lease. The
// caller releases the lease once the body is decoded or handed off. The
// header is decoded straight out of the buffered reader's window (a stack
// header array would escape through io.ReadFull and cost an allocation
// per frame).
func readFrameRing(r *bufio.Reader, ring *BufRing) (uint64, *Lease, []byte, error) {
	hdr, err := r.Peek(frameHdrBytes)
	if err != nil {
		if err == bufio.ErrBufferFull {
			err = io.ErrUnexpectedEOF
		} else if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, nil, err
	}
	seq, n, err := decodeFrameHeader(hdr)
	if err != nil {
		return 0, nil, nil, err
	}
	r.Discard(frameHdrBytes)
	lease := ring.Get(n)
	body := lease.Bytes()[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		lease.Release()
		return 0, nil, nil, err
	}
	mFramesIn.Inc()
	return seq, lease, body, nil
}

// frameSource yields inbound frames; frameSink carries outbound ones. The
// TCP stream and the shared-memory ring both implement the pair, so the
// serve loops below are transport-agnostic.
type frameSource interface {
	next() (seq uint64, lease *Lease, body []byte, err error)
}

type frameSink interface {
	send(seq uint64, body []byte, owned bool) error
}

// streamSource reads frames off a buffered TCP stream into ring leases.
type streamSource struct {
	br   *bufio.Reader
	ring *BufRing
}

func (s *streamSource) next() (uint64, *Lease, []byte, error) {
	return readFrameRing(s.br, s.ring)
}

// Server exposes an rpc.Server over a TCP listener, plus shared-memory
// rings for co-located clients (shm.go).
type Server struct {
	rpc  *rpc.Server
	ln   net.Listener
	addr string

	mu     sync.Mutex
	conns  map[net.Conn]bool
	shm    map[*shmEndpoint]bool
	closed bool
	wg     sync.WaitGroup
}

// Listen starts serving on addr (e.g. "127.0.0.1:0") and registers the
// bound address for same-process shared-memory dialing: a Conn dialed to
// it from this process skips the socket entirely.
func Listen(addr string, srv *rpc.Server) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := Serve(ln, srv)
	s.addr = ln.Addr().String()
	registerSHM(s.addr, s)
	return s, nil
}

// Serve starts serving on an existing listener — the hook the fault
// injector uses to wrap accepted connections. Unlike Listen it does not
// register the address for shared-memory dialing: a caller who supplies
// the listener owns the wire, injected faults included.
func Serve(ln net.Listener, srv *rpc.Server) *Server {
	s := &Server{rpc: srv, ln: ln, conns: make(map[net.Conn]bool), shm: make(map[*shmEndpoint]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, all connections, and all shared-memory rings.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	for ep := range s.shm {
		ep.close()
	}
	s.mu.Unlock()
	if s.addr != "" {
		unregisterSHM(s.addr, s)
	}
	s.wg.Wait()
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = true
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	var kind [1]byte
	if _, err := io.ReadFull(conn, kind[:]); err != nil {
		return
	}
	src := &streamSource{br: bufio.NewReaderSize(conn, readBufBytes), ring: newBufRing()}
	w := newFrameWriter(conn, 0, nil)
	switch kind[0] {
	case chanRPC:
		s.serveRPCLoop(src, w)
	case chanDMA:
		s.serveDMALoop(src, w, s.rpc.Store().NIC().Connect())
	}
}

// readBufBytes sizes the server- and client-side buffered readers: big
// enough that a batch of pipelined frames drains in one syscall.
const readBufBytes = 64 << 10

// workerRamp spawns handler goroutines for a job channel lazily: one
// worker as soon as traffic exists, more only while a backlog is queued,
// never beyond maxInflight. A single-op workload runs on one long-lived
// worker (no per-request goroutine, no per-request closure allocation); a
// pipelined burst ramps the pool up to the inflight bound.
type workerRamp struct {
	workers atomic.Int32
	wg      sync.WaitGroup
}

// admit decides whether a new worker is needed given the current backlog,
// and reserves the slot. run must be a pre-bound worker body so spawning
// allocates nothing per request on the steady path.
func (r *workerRamp) admit(backlog int, run func()) {
	n := r.workers.Load()
	if n >= maxInflight || (n > 0 && backlog == 0) {
		return
	}
	if !r.workers.CompareAndSwap(n, n+1) {
		return // racing admit spawned one; next iteration re-checks
	}
	r.wg.Add(1)
	go run()
}

// serveRPCLoop pipelines request frames into bounded concurrent handlers:
// the source keeps yielding frames while up to maxInflight requests are
// being executed by the worker pool, and responses go out (tagged with the
// request's sequence ID, coalesced by the sink) as they complete. Request
// payloads alias the receive lease — no decode copy — which each handler
// holds until its response is marshalled. A write fault closes the wire,
// which unblocks the source.
func (s *Server) serveRPCLoop(src frameSource, w frameSink) {
	type rpcJob struct {
		seq   uint64
		lease *Lease
		req   rpc.Request
	}
	jobs := make(chan rpcJob, maxInflight)
	var ramp workerRamp
	worker := func() {
		defer ramp.wg.Done()
		for j := range jobs {
			// The response is marshalled straight into the outgoing frame
			// buffer — read payloads are staged and unpacked in place, so
			// the old build-Response-then-copy hop is gone.
			body := s.rpc.SubmitAppend(j.req, getFrameBuf(0))
			j.lease.Release()
			w.send(j.seq, body, true)
		}
	}
	defer func() {
		close(jobs)
		ramp.wg.Wait()
	}()
	for {
		seq, lease, body, err := src.next()
		if err != nil {
			return
		}
		req, err := rpc.UnmarshalRequestView(body)
		if err != nil {
			lease.Release()
			return
		}
		ramp.admit(len(jobs), worker)
		jobs <- rpcJob{seq: seq, lease: lease, req: req}
	}
}

// DMA request body: rkey(4) vaddr(8) length(4). Response: status(1) + data.
const (
	dmaOK      = 0
	dmaBadKey  = 1
	dmaBroken  = 2
	dmaBounds  = 3
	dmaUnknown = 4
)

// serveDMALoop pipelines one-sided reads the same way serveRPCLoop
// pipelines RPCs. The channel's QP is shared by the concurrent handlers —
// the NIC's own locking serializes MTT access, like hardware issuing verbs
// from one QP's send queue — and a QP break persists until the client
// reconnects the channel. The QP slot is released when the channel closes
// (ibv_destroy_qp). Read data lands directly in the response frame buffer:
// the emulated DMA engine writes into wire memory, never a staging copy.
// The caller connects qp before the client can issue a read; the loop owns
// it from then on.
func (s *Server) serveDMALoop(src frameSource, w frameSink, qp *rnic.QP) {
	defer qp.Close()
	type dmaJob struct {
		seq    uint64
		rkey   uint32
		vaddr  uint64
		length uint32
	}
	jobs := make(chan dmaJob, maxInflight)
	var ramp workerRamp
	worker := func() {
		defer ramp.wg.Done()
		for j := range jobs {
			buf := getFrameBuf(int(j.length) + 1)
			_, rerr := qp.Read(j.rkey, j.vaddr, buf[1:])
			switch {
			case rerr == nil:
				buf[0] = dmaOK
			case errors.Is(rerr, rnic.ErrInvalidKey):
				buf = buf[:1]
				buf[0] = dmaBadKey
			case errors.Is(rerr, rnic.ErrQPBroken):
				buf = buf[:1]
				buf[0] = dmaBroken
			case errors.Is(rerr, rnic.ErrOutOfBounds):
				buf = buf[:1]
				buf[0] = dmaBounds
			default:
				buf = buf[:1]
				buf[0] = dmaUnknown
			}
			w.send(j.seq, buf, true)
		}
	}
	defer func() {
		close(jobs)
		ramp.wg.Wait()
	}()
	for {
		seq, lease, body, err := src.next()
		if err != nil {
			return
		}
		if len(body) != 16 {
			lease.Release()
			return
		}
		rkey := binary.LittleEndian.Uint32(body[0:])
		vaddr := binary.LittleEndian.Uint64(body[4:])
		length := binary.LittleEndian.Uint32(body[12:])
		lease.Release()
		if length > maxFrame-1 {
			return
		}
		mDMAReads.Inc()
		ramp.admit(len(jobs), worker)
		jobs <- dmaJob{seq: seq, rkey: rkey, vaddr: vaddr, length: length}
	}
}
