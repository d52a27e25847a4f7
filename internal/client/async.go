// Asynchronous operations with transparent coalescing. ReadAsync,
// WriteAsync and FetchAddAsync return a future immediately; a batcher
// gathers every operation issued within a small window (AsyncWindow) — or
// until AsyncMaxBatch operations are pending — and flushes them as one
// OpBatch frame. Callers that naturally issue bursts of independent
// operations (index probes, scatter-gather KV lookups, replica write
// fan-out, counter bumps) get doorbell-style batching without
// restructuring their code around Multi* calls; the futures resolve
// individually, each with its own status and corrected pointer.
//
// There is one batcher type and three queues of it, one per retry rule: a
// frame is re-issued across transport reconnects only if every sub-op in
// it may be. Reads are idempotent and tokened atomics are deduplicated by
// the server, so their frames are re-issued; a lost write frame cannot tell
// whether the server applied it, so writes never share a frame with them.
package client

import (
	"sync"
	"time"

	"corm/internal/core"
)

// Future resolves to the outcome of one asynchronous operation.
type Future struct {
	done chan struct{}
	n    int
	err  error
}

// Wait blocks until the operation completes, returning the bytes copied
// (for reads; 0 for writes) and the operation's status.
func (f *Future) Wait() (int, error) {
	<-f.done
	return f.n, f.err
}

// resolve delivers the outcome exactly once.
func (f *Future) resolve(n int, err error) {
	f.n = n
	f.err = err
	close(f.done)
}

// AtomicFuture resolves to the outcome of one asynchronous pushdown atomic.
type AtomicFuture struct {
	done chan struct{}
	val  uint64
	err  error
}

// Wait blocks until the operation completes, returning the pre-add value
// (FetchAddAsync) and the operation's status.
func (f *AtomicFuture) Wait() (uint64, error) {
	<-f.done
	return f.val, f.err
}

func (f *AtomicFuture) resolve(val uint64, err error) {
	f.val = val
	f.err = err
	close(f.done)
}

// asyncOp is one pending read or write awaiting the next flush. buf is the
// caller's destination buffer for reads and the payload for writes.
type asyncOp struct {
	addr *core.Addr
	buf  []byte
	fut  *Future
}

func (o asyncOp) fail(err error) { o.fut.resolve(0, err) }

// atomicOp is one pending pushdown fetch-add awaiting the next flush.
type atomicOp struct {
	addr  *core.Addr
	off   int
	delta int64
	fut   *AtomicFuture
}

func (o atomicOp) fail(err error) { o.fut.resolve(0, err) }

// batcher coalesces pending operations of one kind into flushes. Its flush
// function is bound once, by init, so enqueueing allocates nothing beyond
// the operation's own future.
type batcher[T interface{ fail(error) }] struct {
	mu      sync.Mutex
	pending []T
	timer   *time.Timer // armed while pending is non-empty
	flush   func([]T)
	onTimer func() // flushes whatever the window gathered
}

func (b *batcher[T]) init(flush func([]T)) {
	b.flush = flush
	b.onTimer = func() { b.flush(b.take()) }
}

// add enqueues op and arms its dispatch: flush immediately once max ops
// are pending, otherwise when window elapses.
func (b *batcher[T]) add(op T, max int, window time.Duration) {
	b.mu.Lock()
	b.pending = append(b.pending, op)
	switch {
	case len(b.pending) >= max:
		batch := b.takeLocked()
		b.mu.Unlock()
		go b.flush(batch)
	case len(b.pending) == 1:
		b.timer = time.AfterFunc(window, b.onTimer)
		b.mu.Unlock()
	default:
		b.mu.Unlock()
	}
}

// take removes and returns the pending set, disarming the window timer.
func (b *batcher[T]) take() []T {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.takeLocked()
}

func (b *batcher[T]) takeLocked() []T {
	batch := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// dispatch flushes the pending set now, without waiting for the window.
func (b *batcher[T]) dispatch() {
	if batch := b.take(); len(batch) > 0 {
		go b.flush(batch)
	}
}

// drain fails every pending operation with err without issuing I/O, so no
// future hangs on a closed context.
func (b *batcher[T]) drain(err error) {
	for _, op := range b.take() {
		op.fail(err)
	}
}

// ReadAsync enqueues an RPC read and returns a future for its completion.
// The read is coalesced with every other read enqueued within the window
// into a single MultiRead round trip. Like Read, the batch is idempotent
// and re-issued across transport reconnects, and the pointer is corrected
// in place before the future resolves.
func (c *Ctx) ReadAsync(addr *core.Addr, buf []byte) *Future {
	f := &Future{done: make(chan struct{})}
	c.reads.add(asyncOp{addr: addr, buf: buf, fut: f}, c.AsyncMaxBatch, c.AsyncWindow)
	return f
}

// WriteAsync enqueues a write of payload and returns a future for its
// completion. Writes enqueued within the coalescing window dispatch as a
// single MultiWrite round trip — replica fan-outs from many concurrent
// Puts against the same node share frames. Like Write, the batch is NOT
// re-issued across transport reconnects, and the pointer is corrected in
// place before the future resolves.
func (c *Ctx) WriteAsync(addr *core.Addr, payload []byte) *Future {
	f := &Future{done: make(chan struct{})}
	c.writes.add(asyncOp{addr: addr, buf: payload, fut: f}, c.AsyncMaxBatch, c.AsyncWindow)
	return f
}

// FetchAddAsync enqueues a pushdown fetch-add and returns a future for its
// pre-add value. Atomics enqueued within the coalescing window dispatch as
// one RMW round trip — the doorbell batching that lets a counter workload
// push many increments per wire exchange while each stays individually
// atomic server-side.
func (c *Ctx) FetchAddAsync(addr *core.Addr, off int, delta int64) *AtomicFuture {
	f := &AtomicFuture{done: make(chan struct{})}
	c.atomics.add(atomicOp{addr: addr, off: off, delta: delta, fut: f}, c.AsyncMaxBatch, c.AsyncWindow)
	return f
}

// Flush dispatches every pending asynchronous operation immediately,
// without waiting for the coalescing window. It does not wait for their
// futures.
func (c *Ctx) Flush() {
	c.reads.dispatch()
	c.writes.dispatch()
	c.atomics.dispatch()
}

// flushOps issues one coalesced MultiRead or MultiWrite and resolves every
// future.
func (c *Ctx) flushOps(batch []asyncOp, multi func([]*core.Addr, [][]byte) ([]OpResult, error)) {
	if len(batch) == 0 {
		return
	}
	clAsyncFlushSize.Observe(int64(len(batch)))
	addrs := make([]*core.Addr, len(batch))
	bufs := make([][]byte, len(batch))
	for i, op := range batch {
		addrs[i] = op.addr
		bufs[i] = op.buf
	}
	results, err := multi(addrs, bufs)
	for i, op := range batch {
		if err != nil {
			op.fut.resolve(0, err)
			continue
		}
		op.fut.resolve(results[i].N, results[i].Err)
	}
}

// flushAtomics issues one coalesced RMW and resolves every future.
func (c *Ctx) flushAtomics(batch []atomicOp) {
	if len(batch) == 0 {
		return
	}
	clAsyncFlushSize.Observe(int64(len(batch)))
	ops := make([]RMWOp, len(batch))
	for i, a := range batch {
		ops[i] = RMWOp{Kind: RMWFetchAdd, Addr: a.addr, Offset: a.off, Delta: a.delta}
	}
	results, err := c.RMW(ops)
	for i, a := range batch {
		if err != nil {
			a.fut.resolve(0, err)
			continue
		}
		a.fut.resolve(results[i].Old, results[i].Err)
	}
}
