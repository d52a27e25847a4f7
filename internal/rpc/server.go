package rpc

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"corm/internal/core"
)

// Server executes requests against the store on behalf of a bounded set of
// worker threads — the architecture of §2.2.2: requests enter a shared
// queue and any worker picks them up. The "queue" is a pool of worker
// tokens: a Submit borrows a thread ID (blocking while all workers are
// busy, exactly like sitting in the shared queue) and executes on the
// calling goroutine. This keeps the paper's invariant — at most one
// in-flight request per worker thread, so thread-local allocators are
// never used concurrently — without paying two goroutine handoffs per
// request, which dominates the RPC hot path once the transport pipelines.
type Server struct {
	store  *core.Store
	tokens chan int // thread IDs 0..Workers-1; ownership = execution right

	// dedup replays the recorded outcome of tokened pushdown mutations
	// (CAS/FetchAdd/CondWrite) re-delivered across reconnects.
	dedup dedupCache

	// queued counts submissions currently waiting behind busy workers;
	// maxQueue is the depth at which further arrivals are shed with
	// StatusThrottled instead of joining the line (0 = never shed). The
	// overload-control mirror of the compactor's op-rate shedding: a
	// bounded queue keeps tail latency bounded, because a request that
	// would wait behind an unbounded line is better rejected at arrival
	// while the client still has its timeout budget to retry elsewhere.
	queued   atomic.Int64
	maxQueue atomic.Int64

	// mu is held shared by Submit and exclusively by Close, so concurrent
	// submissions never serialize on each other — only against shutdown.
	mu     sync.RWMutex
	closed bool
}

// NewServer builds the worker-token pool over the store.
func NewServer(store *core.Store) *Server {
	s := &Server{
		store:  store,
		tokens: make(chan int, store.Workers()),
	}
	for i := 0; i < store.Workers(); i++ {
		s.tokens <- i
	}
	return s
}

// Store exposes the underlying store.
func (s *Server) Store() *core.Store { return s.store }

// SetQueueLimit bounds how many submissions may wait behind busy workers
// before new arrivals are shed with StatusThrottled. 0 (the default)
// disables shedding — submissions queue without bound, the pre-overload-
// control behavior. Safe to call while serving.
func (s *Server) SetQueueLimit(n int) { s.maxQueue.Store(int64(n)) }

// QueueLimit reports the configured shed threshold (0 = unbounded).
func (s *Server) QueueLimit() int { return int(s.maxQueue.Load()) }

// Close stops accepting requests and waits for in-flight ones to drain.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}

// Submit executes a request on a borrowed worker thread and returns its
// response. Concurrent Submits proceed in parallel up to the worker count;
// beyond that they wait their turn, like requests queued in §2.2.2's
// shared RPC queue. An OpBatch request may additionally borrow idle worker
// tokens and shard its sub-operations across them.
//
// The ops whose reply carries data (OpBatch, OpRead, OpScan) are built in
// frame form by SubmitAppend and decoded in place, so there is one
// implementation of each; the reply payload aliases a fresh buffer the
// caller owns. The other ops answer with a struct: framing and re-parsing
// it would only add cost.
func (s *Server) Submit(req Request) Response {
	switch req.Op {
	case OpBatch, OpRead, OpScan:
		resp, err := UnmarshalResponseView(s.SubmitAppend(req, nil))
		if err != nil {
			return Response{Status: StatusError}
		}
		return resp
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return Response{Status: StatusError}
	}
	mRequests.Inc()
	thread, ok := s.grabToken()
	if !ok {
		return Response{Status: StatusThrottled}
	}
	start := time.Now()
	resp := s.execute(thread, req)
	observeOp(req.Op, start)
	s.tokens <- thread
	return resp
}

// grabToken borrows a worker thread. Fast path: a token is free and the
// grab costs one channel op. Only a contended grab — one that actually
// queues behind busy workers — pays for a timestamp, so the uncontended
// hot path stays clock-free. A contended grab first claims a place in the
// bounded waiting line; if the line is full the request is shed (ok=false)
// without blocking, so overload rejects at arrival instead of building an
// unbounded queue whose tail latency has already blown every SLO.
func (s *Server) grabToken() (thread int, ok bool) {
	select {
	case thread := <-s.tokens:
		return thread, true
	default:
	}
	depth := s.queued.Add(1)
	if max := s.maxQueue.Load(); max > 0 && depth > max {
		s.queued.Add(-1)
		mShed.Inc()
		return 0, false
	}
	mTokenContended.Inc()
	mQueueDepth.Add(1)
	waitStart := time.Now()
	thread = <-s.tokens
	s.queued.Add(-1)
	mQueueDepth.Dec()
	mTokenWait.Record(time.Since(waitStart))
	return thread, true
}

// growBytes extends b by n bytes, reusing capacity without zeroing it —
// callers overwrite the extension in full (or truncate back).
func growBytes(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	return append(b, make([]byte, n)...)
}

// putRespHeader writes a sub/response record header in place.
func putRespHeader(buf []byte, status Status, addr core.Addr, plen int) {
	buf[0] = byte(status)
	binary.LittleEndian.PutUint64(buf[1:], addr.Lo)
	binary.LittleEndian.PutUint64(buf[9:], addr.Hi)
	binary.LittleEndian.PutUint32(buf[17:], uint32(plen))
}

// SubmitAppend executes a request and appends the marshalled response
// directly onto dst — the zero-copy server path: read payloads are staged
// and unpacked in place inside the outgoing frame buffer, so a read
// response is never built as a separate Response-plus-copy. Worker-token
// semantics match Submit exactly.
func (s *Server) SubmitAppend(req Request, dst []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		r := Response{Status: StatusError}
		return r.MarshalAppend(dst)
	}
	mRequests.Inc()
	thread, ok := s.grabToken()
	if !ok {
		r := Response{Status: StatusThrottled}
		return r.MarshalAppend(dst)
	}
	start := time.Now()
	switch req.Op {
	case OpBatch:
		dst = s.executeBatchAppend(thread, req, dst)
	case OpRead:
		dst = s.readAppend(req, dst)
	case OpScan:
		dst = s.scanAppend(req, dst)
	default:
		resp := s.execute(thread, req)
		dst = resp.MarshalAppend(dst)
	}
	observeOp(req.Op, start)
	s.tokens <- thread
	return dst
}

// readAppend serves one OpRead by staging the slot directly in the
// response frame: header space is reserved, the raw slot lands after it,
// the payload unpacks in place, and the header is back-filled with the
// corrected pointer. No scratch buffer, no payload copy.
func (s *Server) readAppend(req Request, dst []byte) []byte {
	addr := req.Addr
	size, stride, ok := s.classDims(addr)
	if !ok {
		r := Response{Status: StatusInvalid, Addr: addr}
		return r.MarshalAppend(dst)
	}
	want := size
	if int(req.Size) > 0 && int(req.Size) < size {
		want = int(req.Size)
	}
	off := len(dst)
	dst = growBytes(dst, respHeader+stride)
	if _, err := s.store.ReadStaged(&addr, dst[off+respHeader:]); err != nil {
		r := Response{Status: StatusOf(err), Addr: addr}
		return r.MarshalAppend(dst[:off])
	}
	putRespHeader(dst[off:], StatusOK, addr, want)
	return dst[:off+respHeader+want]
}

// maxBatchResp caps the packed size of one batch response so it still fits
// the transport frame limit (8 MiB) with header headroom; a batch that
// would overflow is rejected whole with StatusTooLarge.
const maxBatchResp = (8 << 20) - 1024

// minBatchChunk is the smallest sub-op range worth a worker handoff: below
// it, the goroutine + token traffic costs more than the parallelism pays,
// especially on small hosts.
const minBatchChunk = 8

// maxBatchChunks bounds how many workers one batch may fan out across —
// enough to saturate the worker pool on big hosts while keeping the token
// list on the caller's stack.
const maxBatchChunks = 16

// chunkOutsPool recycles the per-batch chunk-output slice.
var chunkOutsPool = slicePool[[]byte]{minCap: maxBatchChunks}

// getChunkOuts borrows an n-element nil-filled chunk-output slice.
func getChunkOuts(n int) [][]byte {
	s := chunkOutsPool.get()
	if cap(s) < n {
		return make([][]byte, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

// putChunkOuts recycles a slice from getChunkOuts, dropping any buffer
// references its elements still hold.
func putChunkOuts(s [][]byte) {
	for i := range s {
		s[i] = nil
	}
	chunkOutsPool.put(s)
}

// executeBatchAppend unpacks an OpBatch request, dispatches its
// sub-operations across the worker-token pool (runBatchChunks) and
// marshals the reply straight into the outgoing frame: the response header
// and batch count are written in place and the packed chunk outputs — each
// sub-response with its own Status and corrected Addr — are concatenated
// after them in input order. No intermediate payload buffer and no
// per-sub-op response structs exist.
func (s *Server) executeBatchAppend(thread int, req Request, dst []byte) []byte {
	subs, err := DecodeBatchRequests(req.Payload, GetSubRequests())
	if err != nil {
		PutSubRequests(subs)
		r := Response{Status: StatusInvalid}
		return r.MarshalAppend(dst)
	}
	n := len(subs)
	if n == 0 {
		PutSubRequests(subs)
		off := len(dst)
		dst = growBytes(dst, respHeader)
		putRespHeader(dst[off:], StatusOK, core.Addr{}, batchCountBytes)
		return AppendBatchHeader(dst, 0)
	}
	outs := s.runBatchChunks(thread, subs)
	PutSubRequests(subs)

	total := batchCountBytes
	for _, o := range outs {
		total += len(o)
	}
	if total > maxBatchResp {
		for _, o := range outs {
			putPackBuf(o)
		}
		putChunkOuts(outs)
		r := Response{Status: StatusTooLarge}
		return r.MarshalAppend(dst)
	}
	// One grow for the whole reply: appending the chunks below then never
	// reallocates, so a fresh dst costs a single exact-size allocation.
	off := len(dst)
	dst = growBytes(dst, respHeader+total)[:off+respHeader]
	putRespHeader(dst[off:], StatusOK, core.Addr{}, total)
	dst = AppendBatchHeader(dst, n)
	for _, o := range outs {
		dst = append(dst, o...)
		putPackBuf(o)
	}
	putChunkOuts(outs)
	return dst
}

// runBatchChunks shards subs across the borrowed thread plus any idle
// worker tokens (grabbed non-blocking, so a batch never stalls behind the
// queue it is part of), one extra worker per additional minBatchChunk of
// subs. Returns the packed per-chunk outputs in input order (pack-pool
// buffers; caller recycles).
func (s *Server) runBatchChunks(thread int, subs []Request) [][]byte {
	n := len(subs)
	// Sharding only pays when the scheduler has spare parallelism: with a
	// single P the extra goroutines cannot overlap, so every fan-out is
	// pure closure-allocation and context-switch cost on the hot path.
	maxExtra := runtime.GOMAXPROCS(0) - 1
	if t := cap(s.tokens) - 1; t < maxExtra {
		maxExtra = t
	}
	if maxExtra > maxBatchChunks-1 {
		maxExtra = maxBatchChunks - 1
	}
	var extraArr [maxBatchChunks - 1]int
	extra := extraArr[:0]
	for len(extra) < maxExtra && (len(extra)+1)*minBatchChunk < n {
		select {
		case t := <-s.tokens:
			extra = append(extra, t)
		default:
			goto sized
		}
	}
sized:
	chunks := len(extra) + 1
	mBatchSubOps.Observe(int64(n))
	mBatchWorkers.Observe(int64(chunks))
	outs := getChunkOuts(chunks)
	if chunks == 1 {
		outs[0] = s.executeChunk(thread, subs)
		return outs
	}
	s.runShardedChunks(thread, subs, extra, outs)
	return outs
}

// runShardedChunks is the fan-out half of runBatchChunks, split out so the
// WaitGroup capture only heap-allocates on calls that actually shard.
func (s *Server) runShardedChunks(thread int, subs []Request, extra []int, outs [][]byte) {
	n, chunks := len(subs), len(outs)
	var wg sync.WaitGroup
	for c := 1; c < chunks; c++ {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		wg.Add(1)
		go func(c, tok, lo, hi int) {
			defer wg.Done()
			outs[c] = s.executeChunk(tok, subs[lo:hi])
		}(c, extra[c-1], lo, hi)
	}
	outs[0] = s.executeChunk(thread, subs[:n/chunks])
	wg.Wait()
	for _, t := range extra {
		s.tokens <- t
	}
}

// executeChunk runs a contiguous sub-op range on one worker token,
// returning the packed sub-response records (from the pack pool). Read
// payloads are staged and unpacked in place inside the packed output, so a
// chunk costs O(1) buffers and zero payload copies regardless of length.
func (s *Server) executeChunk(thread int, subs []Request) []byte {
	out := getPackBuf()
	for i := range subs {
		out = s.executeSub(thread, &subs[i], out)
	}
	return out
}

// executeSub runs one batched sub-operation and appends its packed
// sub-response record onto out. Any single-op record is a valid sub-op,
// the pushdown atomics included; reads reserve their record in out and
// land the slot there directly (see readAppend). A nested batch or scan,
// whose reply is itself a list of records, is rejected by execute.
func (s *Server) executeSub(thread int, sub *Request, out []byte) []byte {
	if sub.Op == OpRead {
		return s.readAppend(*sub, out)
	}
	resp := s.execute(thread, *sub)
	return AppendSubResponse(out, &resp)
}

// classDims bounds-checks a pointer's size class before indexing the class
// table, so a garbage address yields StatusInvalid instead of a panic. It
// returns the class's payload size and slot stride.
func (s *Server) classDims(addr core.Addr) (size, stride int, ok bool) {
	cls := int(addr.Class())
	if cls < 0 || cls >= len(s.store.Config().Classes) {
		return 0, 0, false
	}
	return s.store.ClassSize(cls), s.store.Stride(cls), true
}

// execute dispatches one single-record request against the store on behalf
// of a worker thread. The (possibly corrected) pointer travels back in the
// response so clients can fix their copies (§3.2). OpRead, OpScan and
// OpBatch are served in frame form by SubmitAppend, never here.
func (s *Server) execute(thread int, req Request) Response {
	switch req.Op {
	case OpInfo:
		cfg := s.store.Config()
		info := Info{BlockBytes: cfg.BlockBytes, Consistency: cfg.Consistency, Classes: cfg.Classes}
		return Response{Status: StatusOK, Payload: info.Marshal()}

	case OpAlloc:
		res, err := s.store.AllocOn(thread, int(req.Size))
		if err != nil {
			return Response{Status: StatusOf(err)}
		}
		return Response{Status: StatusOK, Addr: res.Addr}

	case OpFree:
		addr := req.Addr
		err := s.store.Free(&addr)
		return Response{Status: StatusOf(err), Addr: addr}

	case OpWrite:
		addr := req.Addr
		err := s.store.Write(&addr, req.Payload)
		return Response{Status: StatusOf(err), Addr: addr}

	case OpRelease:
		addr := req.Addr
		na, err := s.store.ReleasePtr(&addr)
		if err != nil {
			return Response{Status: StatusOf(err), Addr: addr}
		}
		return Response{Status: StatusOK, Addr: na}

	case OpCAS:
		return s.execCAS(&req)

	case OpFetchAdd:
		return s.execFetchAdd(&req)

	case OpCondWrite:
		return s.execCondWrite(&req)
	}
	return Response{Status: StatusInvalid}
}
