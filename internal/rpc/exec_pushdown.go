// Server-side execution of the pushdown opcodes, plus the op-level dedup
// cache that makes the mutating ones retryable. A plain OpWrite is
// idempotent (last-writer-wins), so the client retries it freely across
// reconnects; CAS and FetchAdd are not — a duplicate delivery double-applies
// the mutation. The client therefore mints a per-operation token, and the
// server remembers the terminal outcome of each tokened op: a retry that
// presents a known token replays the recorded response instead of executing
// again. Only terminal outcomes (StatusOK, StatusConflict) are cached —
// caching a retryable StatusCompacting would wedge the retry loop replaying
// it forever. The cache is direct-mapped and bounded, so a sufficiently
// delayed duplicate can miss (its entry evicted by a colliding token) and
// double-apply; with 4096 slots and random 64-bit token bases that needs
// thousands of in-flight mutations between the original and the retry,
// far beyond what one connection's pipelining window can hold.
package rpc

import (
	"encoding/binary"
	"sync"

	"corm/internal/core"
)

// dedupSlots sizes the direct-mapped outcome cache (power of two).
const dedupSlots = 1 << 12

// dedupEntry is one cached terminal outcome, fixed-size so replays never
// allocate: the value buffer holds FetchAdd's 8-byte old value or
// CondWrite's 4-byte version (vlen 8, 4, or 0 for CAS).
type dedupEntry struct {
	token  uint64
	status Status
	vlen   uint8
	addr   core.Addr
	val    [8]byte
}

// dedupCache maps token hashes to their slot. Per-slot locking is overkill
// for the replay rate (retries are rare); a striped mutex set over the
// slots keeps unrelated tokens from serializing without per-entry cost.
// The zero value is ready to use.
type dedupCache struct {
	locks [64]striped
	slots [dedupSlots]dedupEntry
}

// striped pads each stripe mutex to its own cacheline so neighboring
// stripes do not false-share under contending tokened bursts.
type striped struct {
	mu sync.Mutex
	_  [56]byte
}

// dedupSlot mixes the token down to a cache index. Tokens are random-based
// but sequential per client (base + seq), so fold the high bits in to keep
// one client's burst from marching through a single stripe linearly.
func dedupSlot(token uint64) uint32 {
	x := token * 0x9e3779b97f4a7c15
	return uint32(x>>32) & (dedupSlots - 1)
}

// replay looks up a token's recorded outcome. ok=false means the op must
// execute.
func (d *dedupCache) replay(token uint64) (Response, bool) {
	if token == 0 {
		return Response{}, false
	}
	slot := dedupSlot(token)
	mu := &d.locks[slot&63].mu
	mu.Lock()
	e := &d.slots[slot]
	if e.token != token {
		mu.Unlock()
		return Response{}, false
	}
	resp := Response{Status: e.status, Addr: e.addr}
	if e.vlen > 0 {
		resp.Payload = append(make([]byte, 0, e.vlen), e.val[:e.vlen]...)
	}
	mu.Unlock()
	mDedupHits.Inc()
	return resp, true
}

// record caches a terminal outcome for a token. Non-terminal statuses
// (retryable or malformed) are not recorded: the retry should re-execute.
func (d *dedupCache) record(token uint64, resp *Response) {
	if token == 0 || (resp.Status != StatusOK && resp.Status != StatusConflict) {
		return
	}
	slot := dedupSlot(token)
	mu := &d.locks[slot&63].mu
	mu.Lock()
	e := &d.slots[slot]
	e.token = token
	e.status = resp.Status
	e.addr = resp.Addr
	e.vlen = uint8(copy(e.val[:], resp.Payload))
	mu.Unlock()
}

// execCAS serves one OpCAS request.
func (s *Server) execCAS(req *Request) Response {
	r, err := UnmarshalCASReqView(req.Payload)
	if err != nil {
		return Response{Status: StatusInvalid, Addr: req.Addr}
	}
	if resp, ok := s.dedup.replay(r.Token); ok {
		return resp
	}
	addr := req.Addr
	err = s.store.CAS(&addr, int(r.Offset), r.Old, r.New)
	resp := Response{Status: StatusOf(err), Addr: addr}
	s.dedup.record(r.Token, &resp)
	return resp
}

// execFetchAdd serves one OpFetchAdd request; the success payload is the
// 8-byte little-endian pre-add value.
func (s *Server) execFetchAdd(req *Request) Response {
	r, err := UnmarshalFAddReq(req.Payload)
	if err != nil {
		return Response{Status: StatusInvalid, Addr: req.Addr}
	}
	if resp, ok := s.dedup.replay(r.Token); ok {
		return resp
	}
	addr := req.Addr
	prev, err := s.store.FetchAdd(&addr, int(r.Offset), r.Delta)
	resp := Response{Status: StatusOf(err), Addr: addr}
	if err == nil {
		p := make([]byte, 8)
		binary.LittleEndian.PutUint64(p, prev)
		resp.Payload = p
	}
	s.dedup.record(r.Token, &resp)
	return resp
}

// execCondWrite serves one OpCondWrite request; the payload is the object
// version — new on success, the observed one on StatusConflict, so the
// caller learns what to expect next without a read.
func (s *Server) execCondWrite(req *Request) Response {
	r, err := UnmarshalCondWriteReqView(req.Payload)
	if err != nil || (r.Mode != CondIfVersion && r.Mode != CondIfAbsent) {
		return Response{Status: StatusInvalid, Addr: req.Addr}
	}
	if resp, ok := s.dedup.replay(r.Token); ok {
		return resp
	}
	addr := req.Addr
	ver, err := s.store.CondWrite(&addr, r.Version, r.Mode == CondIfAbsent, r.Value)
	resp := Response{Status: StatusOf(err), Addr: addr}
	if resp.Status == StatusOK || resp.Status == StatusConflict {
		p := make([]byte, 4)
		binary.LittleEndian.PutUint32(p, ver)
		resp.Payload = p
	}
	s.dedup.record(r.Token, &resp)
	return resp
}

// scanAppend serves one OpScan by streaming matches straight into the
// outgoing frame in the OpBatch sub-response framing: the response header
// and match count are reserved up front, each match appends a
// (StatusOK, current pointer, payload) record as the store emits it, and
// both are back-filled at the end. A scan that would overflow the frame
// limit stops early and returns the matches collected so far (clients
// bound result sets with Limit); nothing is staged outside dst.
func (s *Server) scanAppend(req Request, dst []byte) []byte {
	r, err := UnmarshalScanReqView(req.Payload)
	if err != nil || !validPred(r.Pred) {
		resp := Response{Status: StatusInvalid}
		return resp.MarshalAppend(dst)
	}
	head := len(dst)
	dst = growBytes(dst, respHeader)
	dst = AppendBatchHeader(dst, 0) // count back-filled below
	count, limit := 0, int(r.Limit)
	truncated := false
	pred := func(pay []byte) bool {
		return EvalPred(r.Pred, int(r.Offset), r.Arg, pay)
	}
	emit := func(addr core.Addr, pay []byte) bool {
		if len(dst)-head+respHeader+len(pay) > maxBatchResp {
			truncated = true
			return false
		}
		off := len(dst)
		dst = growBytes(dst, respHeader+len(pay))
		putRespHeader(dst[off:], StatusOK, addr, len(pay))
		copy(dst[off+respHeader:], pay)
		count++
		return limit == 0 || count < limit
	}
	if err := s.store.ScanClass(int(r.Class), pred, emit); err != nil {
		resp := Response{Status: StatusOf(err)}
		return resp.MarshalAppend(dst[:head])
	}
	putRespHeader(dst[head:], StatusOK, core.Addr{}, len(dst)-head-respHeader)
	binary.LittleEndian.PutUint32(dst[head+respHeader:], uint32(count))
	mScanMatches.Observe(int64(count))
	if truncated {
		mScanTruncated.Inc()
	}
	return dst
}
