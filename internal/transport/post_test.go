package transport

import (
	"bufio"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corm/internal/fault"
	"corm/internal/rpc"
)

// The posted-call tests: PostCall sends from the caller's goroutine and
// the completion arrives later on a queue the caller owns, tagged as the
// caller chose. Each runs over both wires; CI runs them under -race.

// scriptedReply answers one request on a scripted node's RPC channel: the
// reply body, or nil for silence.
type scriptedReply func(req rpc.Request) []byte

// okUnlessRead answers every request but OpRead with an empty OK response;
// reads hang.
func okUnlessRead(req rpc.Request) []byte {
	if req.Op == rpc.OpRead {
		return nil
	}
	resp := rpc.Response{Status: rpc.StatusOK}
	return resp.MarshalAppend(nil)
}

// scriptedConn connects a Conn to a node that answers its RPC channel by
// reply and never answers its DMA channel: over a TCP listener (through
// dialer, if set), or over shared-memory endpoints served by the test.
// poison breaks the node's side of the RPC channel, as a reset would.
func scriptedConn(t *testing.T, shm bool, reply scriptedReply, dialer func(string, string) (net.Conn, error)) (c *Conn, poison func()) {
	t.Helper()
	opts := fastOpts()
	if shm {
		c = &Conn{addr: "scripted.invalid:0", opts: opts.withDefaults(), rng: rand.New(rand.NewSource(1))}
		c.rpc.kind, c.dma.kind = chanRPC, chanDMA
		rpcEP, dmaEP := newSHMEndpoint(), newSHMEndpoint()
		c.attach(&c.rpc, &shmWire{ep: rpcEP, sink: shmSink{ring: rpcEP.c2s}})
		c.attach(&c.dma, &shmWire{ep: dmaEP, sink: shmSink{ring: dmaEP.c2s}})
		t.Cleanup(func() { c.Close(); rpcEP.close(); dmaEP.close() })
		go func() {
			for {
				seq, body, err := rpcEP.c2s.pop()
				if err != nil {
					return
				}
				req, _ := rpc.UnmarshalRequest(body)
				putFrameBuf(body)
				if out := reply(req); out != nil {
					rpcEP.s2c.push(seq, append(getFrameBuf(0), out...))
				}
			}
		}()
		return c, rpcEP.close
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns, rpcConns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range conns {
			nc.Close()
		}
	})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			go func() {
				br := bufio.NewReader(nc)
				if kind, err := br.ReadByte(); err != nil || kind != chanRPC {
					return
				}
				mu.Lock()
				rpcConns = append(rpcConns, nc)
				mu.Unlock()
				for {
					seq, body, err := readFrame(br)
					if err != nil {
						return
					}
					req, _ := rpc.UnmarshalRequest(body)
					if out := reply(req); out != nil {
						mu.Lock()
						writeFrame(nc, seq, out)
						mu.Unlock()
					}
				}
			}()
		}
	}()
	opts.DisableSharedMemory = true
	opts.Dialer = dialer
	c, err = DialOptions(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, func() {
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range rpcConns {
			nc.Close()
		}
	}
}

// collect receives n completions from done and fails unless each tag in
// [0, n) arrives exactly once and nothing follows.
func collect(t *testing.T, done <-chan Completion, n int) []Completion {
	t.Helper()
	got := make([]Completion, n)
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		select {
		case r := <-done:
			if r.Tag < 0 || r.Tag >= n || seen[r.Tag] {
				t.Fatalf("completion %d: tag %d unknown or repeated", i, r.Tag)
			}
			seen[r.Tag], got[r.Tag] = true, r
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d completions arrived", i, n)
		}
	}
	select {
	case r := <-done:
		t.Fatalf("extra completion for tag %d", r.Tag)
	case <-time.After(20 * time.Millisecond):
	}
	return got
}

// TestPostConcurrentTwoConnsOneQueue: posts from many goroutines over two
// Conns into one completion queue each arrive exactly once, under their
// own tag, and decode to their own response.
func TestPostConcurrentTwoConnsOneQueue(t *testing.T) {
	for _, v := range []struct {
		name string
		shm  bool
	}{{"tcp", false}, {"shm", true}} {
		t.Run(v.name, func(t *testing.T) {
			srv := newNode(t)
			ts, err := Listen("127.0.0.1:0", srv)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ts.Close)
			var conns [2]*Conn
			for i := range conns {
				opts := fastOpts()
				opts.DisableSharedMemory = !v.shm
				if conns[i], err = DialOptions(ts.Addr(), opts); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conns[i].Close() })
			}
			const posters, per = 4, 64
			done := make(chan Completion, posters*per)
			var wg sync.WaitGroup
			for g := 0; g < posters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						tag := g*per + i
						conns[tag%2].PostCall(rpc.Request{Op: rpc.OpAlloc, Size: uint32(8 + tag%64)}, tag, done)
					}
				}(g)
			}
			wg.Wait()
			for tag, r := range collect(t, done, posters*per) {
				resp, lease, err := conns[tag%2].Response(r)
				if err != nil || resp.Status != rpc.StatusOK || resp.Addr.IsZero() {
					t.Fatalf("tag %d: %v %v", tag, resp.Status, err)
				}
				lease.Release()
			}
		})
	}
}

// TestPostResetFailsEachOpenPostOnce: a reset under open posts — injected
// by a fault.Plan on TCP, an endpoint poisoned on shm — completes every
// open post exactly once, with ErrConnBroken.
func TestPostResetFailsEachOpenPostOnce(t *testing.T) {
	silent := func(rpc.Request) []byte { return nil }
	for _, v := range []struct {
		name string
		shm  bool
	}{{"tcp", false}, {"shm", true}} {
		t.Run(v.name, func(t *testing.T) {
			inj := fault.NewInjector(5, fault.Plan{})
			c, poison := scriptedConn(t, v.shm, silent, inj.Dial)
			const open = 16
			done := make(chan Completion, open+1)
			for tag := 0; tag < open; tag++ {
				c.PostCall(rpc.Request{Op: rpc.OpInfo}, tag, done)
			}
			if v.shm {
				poison()
			} else {
				// Every later write on the wrapped connections resets
				// them: the next post's frame lands on a dead socket.
				inj.SetPlan(fault.Plan{ResetAfterWrites: 1})
				c.PostCall(rpc.Request{Op: rpc.OpInfo}, open, done)
			}
			n := open
			if !v.shm {
				n++
			}
			for tag, r := range collect(t, done, n) {
				if !errors.Is(r.Err, ErrConnBroken) {
					t.Fatalf("tag %d: %v, want ErrConnBroken", tag, r.Err)
				}
			}
			if !v.shm && inj.Stats().Resets == 0 {
				t.Fatal("the plan injected no reset")
			}
		})
	}
}

// TestPostExpireBreaksOnlyItsChannel: expiring an open post breaks its
// own channel — it completes as a call timeout — and nothing else: not its
// Conn's DMA channel, not another Conn posting into the same queue. A
// post already complete, or a zero Posted, expires to nothing.
func TestPostExpireBreaksOnlyItsChannel(t *testing.T) {
	for _, v := range []struct {
		name string
		shm  bool
	}{{"tcp", false}, {"shm", true}} {
		t.Run(v.name, func(t *testing.T) {
			a, _ := scriptedConn(t, v.shm, okUnlessRead, nil)
			b, _ := scriptedConn(t, v.shm, okUnlessRead, nil)
			done := make(chan Completion, 4)
			pa := a.PostCall(rpc.Request{Op: rpc.OpRead}, 0, done)
			b.PostCall(rpc.Request{Op: rpc.OpRead}, 1, done)
			pa.Expire()
			r := <-done
			if r.Tag != 0 || !errors.Is(r.Err, ErrConnBroken) || !strings.Contains(r.Err.Error(), "timeout") {
				t.Fatalf("expired post completed as tag %d: %v", r.Tag, r.Err)
			}
			b.rpc.mu.Lock()
			bOpen, bBroken := len(b.rpc.pending), b.rpc.broken
			b.rpc.mu.Unlock()
			if bOpen != 1 || bBroken {
				t.Fatalf("the other Conn: %d open posts, broken=%v; want its post open", bOpen, bBroken)
			}
			a.dma.mu.Lock()
			dmaBroken := a.dma.broken
			a.dma.mu.Unlock()
			if dmaBroken {
				t.Fatal("expiring an RPC post broke the DMA channel")
			}

			pb := b.PostCall(rpc.Request{Op: rpc.OpInfo}, 2, done)
			if r := <-done; r.Tag != 2 || r.Err != nil {
				t.Fatalf("answered post: tag %d %v", r.Tag, r.Err)
			} else {
				r.lease.Release()
			}
			pb.Expire()
			Posted{}.Expire()
			b.rpc.mu.Lock()
			bBroken = b.rpc.broken
			b.rpc.mu.Unlock()
			if bBroken {
				t.Fatal("expiring a completed post broke its channel")
			}
		})
	}
}

// TestCallTimeoutIsNetTimeout: a blocking call that outlives CallTimeout
// fails with an error that is both ErrConnBroken and a net.Error whose
// Timeout reports true, so callers can tell a timeout from other faults.
func TestCallTimeoutIsNetTimeout(t *testing.T) {
	for _, v := range []struct {
		name string
		shm  bool
	}{{"tcp", false}, {"shm", true}} {
		t.Run(v.name, func(t *testing.T) {
			c, _ := scriptedConn(t, v.shm, okUnlessRead, nil)
			c.opts.CallTimeout = 20 * time.Millisecond
			_, err := c.Call(rpc.Request{Op: rpc.OpRead})
			var nerr net.Error
			if !errors.As(err, &nerr) || !nerr.Timeout() {
				t.Fatalf("timed-out call: %v; want a net.Error with Timeout", err)
			}
			if !errors.Is(err, ErrConnBroken) || !IsRetryable(err) || !IsTransportError(err) {
				t.Fatalf("timed-out call: %v; want ErrConnBroken, retryable, a transport error", err)
			}
		})
	}
}

// TestPostUndecodableReplyBreaksChannel: a reply that does not decode as a
// response breaks the channel that delivered it, and its poster gets
// ErrConnBroken.
func TestPostUndecodableReplyBreaksChannel(t *testing.T) {
	for _, v := range []struct {
		name string
		shm  bool
	}{{"tcp", false}, {"shm", true}} {
		t.Run(v.name, func(t *testing.T) {
			c, _ := scriptedConn(t, v.shm, func(rpc.Request) []byte { return []byte{0xFF} }, nil)
			done := make(chan Completion, 1)
			c.PostCall(rpc.Request{Op: rpc.OpInfo}, 7, done)
			r := <-done
			if r.Tag != 7 || r.Err != nil {
				t.Fatalf("garbage reply delivered as tag %d: %v", r.Tag, r.Err)
			}
			if _, _, err := c.Response(r); !errors.Is(err, ErrConnBroken) {
				t.Fatalf("undecodable reply: %v, want ErrConnBroken", err)
			}
			c.rpc.mu.Lock()
			broken := c.rpc.broken
			c.rpc.mu.Unlock()
			if !broken {
				t.Fatal("undecodable reply left the channel in use")
			}
		})
	}
}

// TestPostNeverDials: a post on a channel with no live wire completes at
// once with ErrConnBroken and leaves the redial to the next blocking call,
// so a poster never waits on a dial.
func TestPostNeverDials(t *testing.T) {
	for _, v := range []struct {
		name string
		shm  bool
	}{{"tcp", false}, {"shm", true}} {
		t.Run(v.name, func(t *testing.T) {
			c, poison := scriptedConn(t, v.shm, okUnlessRead, nil)
			var dials atomic.Int32
			c.opts.Dialer = func(string, string) (net.Conn, error) {
				dials.Add(1)
				return nil, errors.New("refused")
			}
			// One answered call: a TCP wire's handshake rides its first frame.
			if _, err := c.Call(rpc.Request{Op: rpc.OpInfo}); err != nil || !c.Connected() {
				t.Fatalf("a fresh Conn: %v, connected=%v", err, c.Connected())
			}
			poison()
			for deadline := time.Now().Add(5 * time.Second); c.Connected(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the reset never broke the channel")
				}
			}
			done := make(chan Completion, 1)
			if p := c.PostCall(rpc.Request{Op: rpc.OpInfo}, 3, done); p != (Posted{}) {
				t.Fatal("a post on a broken channel went out")
			}
			select {
			case r := <-done:
				if r.Tag != 3 || !errors.Is(r.Err, ErrConnBroken) {
					t.Fatalf("unposted call completed as tag %d: %v", r.Tag, r.Err)
				}
			default:
				t.Fatal("a post on a broken channel did not complete at once")
			}
			if n := dials.Load(); n != 0 {
				t.Fatalf("the post dialed %d times", n)
			}
			if _, err := c.Call(rpc.Request{Op: rpc.OpInfo}); !errors.Is(err, ErrConnBroken) || dials.Load() == 0 {
				t.Fatalf("blocking call after the reset: %v after %d dials, want a failed redial", err, dials.Load())
			}
		})
	}
}
