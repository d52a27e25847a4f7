package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"corm/internal/rpc"
)

// Options tunes a client connection's failure behaviour. The zero value
// gets sane defaults (see withDefaults).
type Options struct {
	// CallTimeout bounds one round trip on either channel; a call that
	// expires breaks the channel (responses can no longer be matched to
	// waiters reliably) and fails every pending call on it. <0 disables
	// timeouts.
	CallTimeout time.Duration
	// RedialAttempts bounds how many dials one repair of a broken channel
	// performs before giving up (the operation then fails with
	// ErrConnBroken and the next use tries again).
	RedialAttempts int
	// RedialBase / RedialMax shape the exponential backoff between redial
	// attempts; actual sleeps are jittered uniformly in [base/2, base).
	RedialBase time.Duration
	RedialMax  time.Duration
	// Seed drives the backoff jitter RNG, for reproducible schedules.
	Seed int64
	// Dialer opens the raw TCP connection; fault injection hooks in here.
	// Setting it also disables the shared-memory fast path: a harness that
	// wraps the wire gets the wire.
	Dialer func(network, addr string) (net.Conn, error)
	// DisableSharedMemory forces TCP even for same-process endpoints
	// (loopback benchmarks comparing the two paths).
	DisableSharedMemory bool
}

func (o Options) withDefaults() Options {
	if o.CallTimeout == 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.RedialAttempts <= 0 {
		o.RedialAttempts = 3
	}
	if o.RedialBase <= 0 {
		o.RedialBase = 2 * time.Millisecond
	}
	if o.RedialMax <= 0 {
		o.RedialMax = 200 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Dialer != nil {
		o.DisableSharedMemory = true
	} else {
		o.Dialer = net.Dial
	}
	return o
}

// wire is one live incarnation of a channel's transport: the TCP frame
// stream or a shared-memory endpoint. A wire that faulted is closed and
// replaced wholesale — its identity doubles as the incarnation token the
// failure path compares, so a stale fault can never poison a successor.
type wire interface {
	// send enqueues one frame; with owned the wire takes the frame-pool
	// buffer and recycles it once delivered.
	send(seq uint64, body []byte, owned bool) error
	close() error
}

// tcpWire frames onto a socket through the scatter-gather writer.
type tcpWire struct {
	nc net.Conn
	fw *frameWriter
}

func (w *tcpWire) send(seq uint64, body []byte, owned bool) error {
	return w.fw.send(seq, body, owned)
}
func (w *tcpWire) close() error { return w.nc.Close() }

// shmWire frames onto an in-process endpoint (shm.go).
type shmWire struct {
	ep   *shmEndpoint
	sink shmSink
}

func (w *shmWire) send(seq uint64, body []byte, owned bool) error {
	if err := w.sink.send(seq, body, owned); err != nil {
		return fmt.Errorf("%w: %v", ErrConnBroken, err)
	}
	return nil
}
func (w *shmWire) close() error { w.ep.close(); return nil }

// Completion is the one delivery of a call: a view of the response body
// backed by a receive-buffer lease, or the transport failure that ended
// the call, under the tag its poster chose. The demux reader (or the
// failure path) delivers it; the receiver releases the lease once decoded
// (or hands it up to callers that want zero-copy views).
type Completion struct {
	Tag   int
	Err   error
	lease *Lease
	body  []byte
}

// pendingCall is one call awaiting its completion: where to deliver it and
// under which tag. A blocking call and a posted call are the same entry.
type pendingCall struct {
	done chan<- Completion
	tag  int
}

// channel is one multiplexed framed stream to the server. Many calls may be
// in flight at once: each registers a sequence ID in pending, enqueues its
// frame on the wire, and waits for the demux reader goroutine (one per wire
// incarnation) to deliver the matching response. A channel whose read or
// write failed mid-frame is marked broken — its framing state is undefined,
// so it must never be reused — every pending call fails with ErrConnBroken,
// and the next use re-dials.
type channel struct {
	kind byte

	mu      sync.Mutex // guards w, broken, closed, seq, pending
	w       wire
	broken  bool
	closed  bool
	seq     uint64
	pending map[uint64]pendingCall
}

// failPendingLocked delivers err to every pending call. Caller holds ch.mu.
func (ch *channel) failPendingLocked(err error) {
	for seq, pc := range ch.pending {
		delete(ch.pending, seq)
		pc.done <- Completion{Tag: pc.tag, Err: err}
	}
}

// Conn is a client's connection bundle to one CoRM node: one RPC channel
// and one DMA (emulated one-sided) channel. Both channels are multiplexed
// (concurrent calls pipeline on the wire) and self-heal: transport faults
// mark them broken, fail all in-flight calls with ErrConnBroken, and the
// next operation transparently re-dials with exponential backoff. Conn does
// not re-issue operations — that is the client layer's job, and only for
// idempotent ones.
//
// When the address belongs to a Server listening in this same process (and
// no custom Dialer is installed), both channels ride the shared-memory
// fast path instead of the socket; everything above the wire behaves
// identically.
type Conn struct {
	addr string
	opts Options

	rngMu sync.Mutex
	rng   *rand.Rand

	rpc channel
	dma channel
}

// Dial connects both channels to a CoRM server with default options.
func Dial(addr string) (*Conn, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects with explicit failure-handling options.
func DialOptions(addr string, opts Options) (*Conn, error) {
	opts = opts.withDefaults()
	c := &Conn{
		addr: addr,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	c.rpc.kind = chanRPC
	c.dma.kind = chanDMA
	rpcWire, err := c.dialWire(chanRPC)
	if err != nil {
		return nil, err
	}
	dmaWire, err := c.dialWire(chanDMA)
	if err != nil {
		rpcWire.close()
		return nil, err
	}
	c.attach(&c.rpc, rpcWire)
	c.attach(&c.dma, dmaWire)
	return c, nil
}

// attach installs a freshly dialed wire on a channel and starts its demux
// reader.
func (c *Conn) attach(ch *channel, w wire) {
	ch.mu.Lock()
	c.attachLocked(ch, w)
	ch.mu.Unlock()
}

// attachLocked is attach with ch.mu already held.
func (c *Conn) attachLocked(ch *channel, w wire) {
	ch.w = w
	ch.broken = false
	ch.pending = make(map[uint64]pendingCall)
	switch tw := w.(type) {
	case *tcpWire:
		go c.readLoopTCP(ch, tw)
	case *shmWire:
		go c.readLoopSHM(ch, tw)
	}
}

// dialWire opens one channel's transport. Same-process endpoints attach
// over shared memory (unless opted out); otherwise a TCP connection is
// dialed and the channel-kind handshake byte is folded into the wire's
// first flushed batch — connection setup costs a single syscall.
func (c *Conn) dialWire(kind byte) (wire, error) {
	if !c.opts.DisableSharedMemory {
		if srv := lookupSHM(c.addr); srv != nil {
			if ep := srv.dialSHM(kind); ep != nil {
				return &shmWire{ep: ep, sink: shmSink{ring: ep.c2s}}, nil
			}
		}
	}
	nc, err := c.opts.Dialer("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	w := &tcpWire{nc: nc}
	w.fw = newFrameWriter(nc, kind, func(err error) {
		c.failChannel(ch(c, kind), w, "write", err)
	})
	return w, nil
}

// ch maps a channel kind back to the Conn's channel.
func ch(c *Conn, kind byte) *channel {
	if kind == chanDMA {
		return &c.dma
	}
	return &c.rpc
}

// Close tears down both channels, failing any in-flight calls.
func (c *Conn) Close() error {
	var err error
	for _, ch := range []*channel{&c.rpc, &c.dma} {
		ch.mu.Lock()
		ch.closed = true
		ch.failPendingLocked(ErrConnClosed)
		if ch.w != nil {
			if e := ch.w.close(); e != nil {
				err = e
			}
		}
		ch.mu.Unlock()
	}
	return err
}

// jitterSleep sleeps a uniformly jittered [d/2, d).
func (c *Conn) jitterSleep(d time.Duration) {
	c.rngMu.Lock()
	j := d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.rngMu.Unlock()
	time.Sleep(j)
}

// ensureLocked repairs a broken or missing channel, re-dialing with
// exponential backoff + jitter and restarting the demux reader. Without
// dial it repairs nothing: a channel with no live wire fails at once with
// ErrConnBroken. Caller holds ch.mu.
func (c *Conn) ensureLocked(ch *channel, dial bool) error {
	if ch.closed {
		return ErrConnClosed
	}
	if ch.w != nil && !ch.broken {
		return nil
	}
	if !dial {
		return fmt.Errorf("%w: %s: not connected", ErrConnBroken, c.addr)
	}
	if ch.w != nil {
		ch.w.close()
		ch.w = nil
	}
	backoff := c.opts.RedialBase
	var last error
	for i := 0; i < c.opts.RedialAttempts; i++ {
		if i > 0 {
			c.jitterSleep(backoff)
			if backoff *= 2; backoff > c.opts.RedialMax {
				backoff = c.opts.RedialMax
			}
		}
		mRedialAttempts.Inc()
		w, err := c.dialWire(ch.kind)
		if err != nil {
			last = err
			continue
		}
		c.attachLocked(ch, w)
		mRedialSuccess.Inc()
		return nil
	}
	return fmt.Errorf("%w: redial %s failed: %v", ErrConnBroken, c.addr, last)
}

// failChannel poisons the channel after a fault on the given wire
// incarnation: the stream's framing state is undefined, so the wire is
// closed, every pending call fails with ErrConnBroken, and the next use
// re-dials instead of desynchronizing. If the channel has already moved on
// to a newer wire (or is closed), this is a no-op — the fault belongs to a
// previous incarnation whose pending calls were already failed. The error
// wraps both ErrConnBroken and cause, so a timeout's net.Error shows.
func (c *Conn) failChannel(ch *channel, w wire, stage string, cause error) error {
	err := fmt.Errorf("%w: %s: %w", ErrConnBroken, stage, cause)
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.w != w || ch.closed {
		return err
	}
	ch.broken = true
	mBrokenChannels.Inc()
	w.close()
	ch.failPendingLocked(err)
	return err
}

// deliver routes one decoded frame to its pending call; a false return
// means the wire moved on or the sequence ID was unsolicited (the caller
// poisons the channel for the latter).
func (c *Conn) deliver(ch *channel, w wire, seq uint64, lease *Lease, body []byte) (stale, ok bool) {
	ch.mu.Lock()
	if ch.w != w {
		ch.mu.Unlock()
		lease.Release()
		return true, false
	}
	pc, ok := ch.pending[seq]
	if ok {
		delete(ch.pending, seq)
	}
	ch.mu.Unlock()
	if !ok {
		lease.Release()
		return false, false
	}
	pc.done <- Completion{Tag: pc.tag, lease: lease, body: body}
	return false, true
}

// readLoopTCP is the demux reader for a socket wire: response frames land
// in registered ring buffers and each lease is delivered to the pending
// call whose sequence ID the frame echoes. Any read fault — including an
// unsolicited sequence ID, which means the stream is desynchronized —
// poisons the channel and fails all pending calls.
func (c *Conn) readLoopTCP(ch *channel, w *tcpWire) {
	br := bufio.NewReaderSize(w.nc, readBufBytes)
	ring := newBufRing()
	for {
		seq, lease, body, err := readFrameRing(br, ring)
		if err != nil {
			c.failChannel(ch, w, "read", err)
			return
		}
		stale, ok := c.deliver(ch, w, seq, lease, body)
		if stale {
			return
		}
		if !ok {
			c.failChannel(ch, w, "decode", fmt.Errorf("unsolicited response seq %d", seq))
			return
		}
	}
}

// readLoopSHM is the demux reader for a shared-memory wire: slot buffers
// are handed to callers directly (wrapped in pooled leases) — no landing
// copy exists on this path at all.
func (c *Conn) readLoopSHM(ch *channel, w *shmWire) {
	for {
		seq, body, err := w.ep.s2c.pop()
		if err != nil {
			c.failChannel(ch, w, "read", err)
			return
		}
		mFramesIn.Inc()
		stale, ok := c.deliver(ch, w, seq, newPooledLease(body), body)
		if stale {
			return
		}
		if !ok {
			c.failChannel(ch, w, "decode", fmt.Errorf("unsolicited response seq %d", seq))
			return
		}
	}
}

// errCallTimeout marks a round trip that outlived CallTimeout; it surfaces
// wrapped in ErrConnBroken and satisfies net.Error's Timeout.
type errCallTimeout struct{ d time.Duration }

func (e errCallTimeout) Error() string { return fmt.Sprintf("call exceeded %v", e.d) }
func (e errCallTimeout) Timeout() bool { return true }

// Temporary completes net.Error, answering as os.ErrDeadlineExceeded does.
func (e errCallTimeout) Temporary() bool { return true }

// timerPool recycles call-timeout timers; a fresh time.NewTimer costs three
// allocations per round trip, which shows up at pipelined call rates.
var timerPool = sync.Pool{}

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops and drains a timer obtained from getTimer. The caller must
// no longer be selecting on t.C.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// donePool recycles the one-shot completion channels of roundTrip. A
// pending entry receives exactly one send (from the demux reader or the
// failure path — both remove it from the map first) and roundTrip always
// performs the matching receive, so a channel leaving roundTrip is
// provably empty and safe to reuse.
var donePool = sync.Pool{New: func() any { return make(chan Completion, 1) }}

// Posted names one posted call, so that its poster can expire it.
type Posted struct {
	c   *Conn
	ch  *channel
	seq uint64
}

// Expire ends the call if it is still open, exactly as a blocking call's
// own timeout does: a response on its channel can no longer be matched to
// a waiter reliably, so the channel breaks, every call pending on it
// completes with ErrConnBroken (this one included), and the next use
// re-dials. A call already complete, or a zero Posted, is left alone.
func (p Posted) Expire() {
	if p.ch == nil {
		return
	}
	p.ch.mu.Lock()
	_, open := p.ch.pending[p.seq]
	w := p.ch.w // an open call's wire: a new wire starts with no calls
	p.ch.mu.Unlock()
	if open {
		mCallTimeouts.Inc()
		p.c.failChannel(p.ch, w, "timeout", errCallTimeout{p.c.opts.CallTimeout})
	}
}

// post starts one multiplexed exchange: register a pending call that
// reports into done under tag, then enqueue the request frame (ownership
// of an owned frame-pool body passes to the wire). A channel with no live
// wire is re-dialed first if dial is set. Every post completes on done
// exactly once — a channel that cannot be used completes it at once with
// the error — so done must have room for every completion its receiver
// may leave uncollected. Transport faults poison the channel and fail all
// its pending calls.
func (c *Conn) post(ch *channel, body []byte, owned, dial bool, tag int, done chan<- Completion) Posted {
	ch.mu.Lock()
	if err := c.ensureLocked(ch, dial); err != nil {
		ch.mu.Unlock()
		if owned {
			putFrameBuf(body)
		}
		done <- Completion{Tag: tag, Err: err}
		return Posted{}
	}
	w := ch.w
	ch.seq++
	seq := ch.seq
	ch.pending[seq] = pendingCall{done: done, tag: tag}
	ch.mu.Unlock()

	if werr := w.send(seq, body, owned); werr != nil {
		// Fails every pending call on this incarnation — including ours,
		// unless a concurrent fault already did; either way done fires.
		// (An asynchronous flush fault reaches the same path through the
		// frameWriter's onErr hook.)
		c.failChannel(ch, w, "write", werr)
	}
	return Posted{c: c, ch: ch, seq: seq}
}

// wait receives p's completion from done, expiring p once it has been
// open for CallTimeout.
func (c *Conn) wait(p Posted, done <-chan Completion) Completion {
	if p.ch == nil || c.opts.CallTimeout <= 0 {
		return <-done
	}
	t := getTimer(c.opts.CallTimeout)
	select {
	case r := <-done:
		putTimer(t)
		return r
	case <-t.C:
		timerPool.Put(t) // already fired and drained
		p.Expire()
		return <-done // the expiry (or a concurrent completion) delivered
	}
}

// roundTrip performs one blocking exchange: post the frame (re-dialing a
// broken channel first), wait for its completion. The completion's body
// aliases its lease — decode or copy, then Release.
func (c *Conn) roundTrip(ch *channel, body []byte, owned bool) Completion {
	done := donePool.Get().(chan Completion)
	r := c.wait(c.post(ch, body, owned, true, 0, done), done)
	donePool.Put(done)
	return r
}

// marshalCall encodes a request into a frame-pool buffer, enforcing the
// frame bound before the wire is touched.
func marshalCall(req rpc.Request) ([]byte, error) {
	body := req.MarshalAppend(getFrameBuf(0))
	if len(body)+frameSeqBytes > maxFrame {
		n := len(body)
		putFrameBuf(body)
		return nil, fmt.Errorf("%w: %d-byte request", ErrFrameTooLarge, n)
	}
	return body, nil
}

// Call performs one RPC round trip. Concurrent Calls on one Conn pipeline
// on the wire. On transport faults the RPC channel is marked broken and the
// error wraps ErrConnBroken; the next Call re-dials. A request too large
// for one frame (an oversized batch, a giant write) fails cleanly with
// ErrFrameTooLarge before touching the wire — the channel stays healthy.
// The response payload is a private copy; CallLease is the zero-copy
// variant.
func (c *Conn) Call(req rpc.Request) (rpc.Response, error) {
	resp, lease, err := c.CallLease(req)
	if err != nil {
		return rpc.Response{}, err
	}
	if len(resp.Payload) > 0 {
		resp.Payload = append([]byte(nil), resp.Payload...)
	}
	lease.Release()
	return resp, nil
}

// CallLease performs one RPC round trip without copying the response
// payload: Response.Payload aliases the returned lease's receive buffer.
// The caller must Release the lease when done with the payload (a nil
// lease on error needs no release, but Release tolerates it).
func (c *Conn) CallLease(req rpc.Request) (rpc.Response, *Lease, error) {
	body, err := marshalCall(req)
	if err != nil {
		return rpc.Response{}, nil, err
	}
	return c.Response(c.roundTrip(&c.rpc, body, true))
}

// PostCall posts one RPC from the caller's goroutine without waiting for
// it: its completion arrives on done under tag (done must have room for
// it), and Response decodes it. It never dials: on an RPC channel with no
// live wire (Connected reports false) it completes at once with
// ErrConnBroken, and the next blocking call re-dials. A request too large
// for one frame completes at once with ErrFrameTooLarge. The caller
// expires the call through the returned Posted once it has been open for
// CallTimeout; nothing else does.
func (c *Conn) PostCall(req rpc.Request, tag int, done chan<- Completion) Posted {
	body, err := marshalCall(req)
	if err != nil {
		done <- Completion{Tag: tag, Err: err}
		return Posted{}
	}
	return c.post(&c.rpc, body, true, false, tag, done)
}

// Connected reports whether the RPC channel has a live wire, so that a
// call posted now goes out without a redial.
func (c *Conn) Connected() bool {
	c.rpc.mu.Lock()
	defer c.rpc.mu.Unlock()
	return !c.rpc.closed && c.rpc.w != nil && !c.rpc.broken
}

// CallTimeout reports how long a call may stay open before it is expired
// (0: never).
func (c *Conn) CallTimeout() time.Duration { return max(c.opts.CallTimeout, 0) }

// Response decodes an RPC call's completion into the response, whose
// Payload aliases the returned lease. A frame that does not decode means
// the stream is corrupt: the channel that delivered it breaks.
func (c *Conn) Response(r Completion) (rpc.Response, *Lease, error) {
	if r.Err != nil {
		return rpc.Response{}, nil, r.Err
	}
	resp, err := rpc.UnmarshalResponseView(r.body)
	if err != nil {
		r.lease.Release()
		return rpc.Response{}, nil, c.failDecode(&c.rpc, err)
	}
	return resp, r.lease, nil
}

// DirectRead performs an emulated one-sided read of len(buf) bytes at the
// remote virtual address; concurrent reads pipeline on the DMA channel. All
// validity checking is up to the caller, as with a real RDMA read. A broken
// QP (ErrDMABroken) persists server-side until ReconnectDMA re-dials the
// channel — the reconnect the paper prices at milliseconds; transport
// faults heal automatically like Call's.
func (c *Conn) DirectRead(rkey uint32, vaddr uint64, buf []byte) error {
	lease, data, err := c.DirectReadLease(rkey, vaddr, len(buf))
	if err != nil {
		return err
	}
	copy(buf, data)
	lease.Release()
	return nil
}

// DirectReadLease is the zero-copy one-sided read: the returned view of
// the read data aliases the returned lease's receive buffer (the emulated
// NIC wrote into registered memory; this is that memory). Release when
// done.
func (c *Conn) DirectReadLease(rkey uint32, vaddr uint64, n int) (*Lease, []byte, error) {
	if n+1 > maxFrame {
		return nil, nil, fmt.Errorf("%w: DMA read of %d bytes", ErrFrameTooLarge, n)
	}
	// The request rides an owned pool buffer: a stack array would escape
	// through the wire interface and cost an allocation per read.
	req := getFrameBuf(16)
	binary.LittleEndian.PutUint32(req[0:], rkey)
	binary.LittleEndian.PutUint64(req[4:], vaddr)
	binary.LittleEndian.PutUint32(req[12:], uint32(n))
	r := c.roundTrip(&c.dma, req, true)
	if r.Err != nil {
		return nil, nil, r.Err
	}
	lease, frame := r.lease, r.body
	if len(frame) < 1 {
		lease.Release()
		return nil, nil, c.failDecode(&c.dma, fmt.Errorf("empty DMA response"))
	}
	status := frame[0]
	switch status {
	case dmaOK:
		if len(frame)-1 != n {
			// A short payload means we are reading someone else's frame.
			lease.Release()
			return nil, nil, c.failDecode(&c.dma, fmt.Errorf("DMA short read (%d of %d)", len(frame)-1, n))
		}
		return lease, frame[1:], nil
	case dmaBadKey:
		lease.Release()
		return nil, nil, ErrDMABadKey
	case dmaBroken:
		lease.Release()
		return nil, nil, ErrDMABroken
	case dmaBounds:
		lease.Release()
		return nil, nil, ErrDMABounds
	}
	lease.Release()
	return nil, nil, c.failDecode(&c.dma, fmt.Errorf("DMA error %d", status))
}

// failDecode poisons a channel after an undecodable response.
func (c *Conn) failDecode(ch *channel, cause error) error {
	ch.mu.Lock()
	w := ch.w
	ch.mu.Unlock()
	return c.failChannel(ch, w, "decode", cause)
}

// ReconnectDMA re-establishes the one-sided channel after a QP break,
// failing any in-flight reads and using the same backoff policy as
// automatic repair.
func (c *Conn) ReconnectDMA() error {
	c.dma.mu.Lock()
	defer c.dma.mu.Unlock()
	if c.dma.w != nil {
		c.dma.w.close()
	}
	c.dma.broken = true
	c.dma.failPendingLocked(fmt.Errorf("%w: reconnect", ErrConnBroken))
	return c.ensureLocked(&c.dma, true)
}
