// Batch framing for OpBatch: many sub-operations in one RPC frame.
//
// PR 2 amortized syscalls (group-commit frames, seq-ID multiplexing) but
// every operation still paid one frame header, one pending-map entry, and
// one scheduler handoff per call. OpBatch amortizes the *operation*: the
// payload of a single request packs N sub-requests (read/write/alloc/free/
// release and the pushdown atomics CAS/FetchAdd/CondWrite — any single-op
// record; only a nested batch or scan is refused per sub-op), the server
// fans the sub-ops across its worker-token pool, and
// the response packs N sub-responses — each with its own Status and its own
// corrected Addr, so per-sub-op pointer correction survives batching. This
// is the Active-Access/doorbell-batching lever: one round trip, one
// pending-map entry, N operations.
//
// Batch payload layout (little-endian):
//
//	request:  count(4) then per sub: op(1) addr(16) size(4) plen(4) payload
//	response: count(4) then per sub: status(1) addr(16) plen(4) payload
//
// Sub records reuse the exact single-op encodings, so a sub-request is
// decoded by the same field offsets as a top-level one. Decoding is
// zero-copy: sub payloads alias the batch buffer, which both sides own for
// the lifetime of the batch (the server decodes out of the request's
// heap-owned Payload; the client decodes out of the response's).
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrBatchCorrupt reports an OpBatch payload whose framing does not parse.
var ErrBatchCorrupt = errors.New("rpc: corrupt batch payload")

// batchCountBytes prefixes every batch payload.
const batchCountBytes = 4

// MaxBatchOps bounds the sub-operation count of one batch: a denial-of-
// service guard (a 4-byte count could otherwise promise 4G sub-ops) far
// above any useful batch (frame size limits bite first).
const MaxBatchOps = 1 << 16

// AppendBatchHeader starts a batch payload: the sub-operation count.
func AppendBatchHeader(dst []byte, count int) []byte {
	var hdr [batchCountBytes]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(count))
	return append(dst, hdr[:]...)
}

// AppendSubRequest encodes one sub-request record onto dst.
func AppendSubRequest(dst []byte, r *Request) []byte {
	return r.MarshalAppend(dst)
}

// AppendSubResponse encodes one sub-response record onto dst.
func AppendSubResponse(dst []byte, r *Response) []byte {
	return r.MarshalAppend(dst)
}

// MarshalBatchRequests packs subs into a complete OpBatch request payload.
func MarshalBatchRequests(dst []byte, subs []Request) []byte {
	dst = AppendBatchHeader(dst, len(subs))
	for i := range subs {
		dst = AppendSubRequest(dst, &subs[i])
	}
	return dst
}

// MarshalBatchResponses packs subs into a complete OpBatch response payload.
func MarshalBatchResponses(dst []byte, subs []Response) []byte {
	dst = AppendBatchHeader(dst, len(subs))
	for i := range subs {
		dst = AppendSubResponse(dst, &subs[i])
	}
	return dst
}

// batchCount validates and strips the count prefix.
func batchCount(buf []byte) (int, []byte, error) {
	if len(buf) < batchCountBytes {
		return 0, nil, fmt.Errorf("%w: short count", ErrBatchCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n > MaxBatchOps {
		return 0, nil, fmt.Errorf("%w: %d sub-ops exceeds limit", ErrBatchCorrupt, n)
	}
	return n, buf[batchCountBytes:], nil
}

// DecodeBatchRequests parses an OpBatch request payload, appending each
// sub-request onto subs (pass a pooled slice to avoid allocation). Sub
// payloads alias buf; the caller must keep buf alive while subs are used.
func DecodeBatchRequests(buf []byte, subs []Request) ([]Request, error) {
	n, rest, err := batchCount(buf)
	if err != nil {
		return subs, err
	}
	for i := 0; i < n; i++ {
		if len(rest) < reqHeader {
			return subs, fmt.Errorf("%w: truncated sub-request %d", ErrBatchCorrupt, i)
		}
		plen := int(binary.LittleEndian.Uint32(rest[21:]))
		if plen < 0 || len(rest) < reqHeader+plen {
			return subs, fmt.Errorf("%w: sub-request %d payload overruns", ErrBatchCorrupt, i)
		}
		sub := Request{
			Op:   OpCode(rest[0]),
			Addr: addrFrom(rest[1:]),
			Size: binary.LittleEndian.Uint32(rest[17:]),
		}
		if plen > 0 {
			sub.Payload = rest[reqHeader : reqHeader+plen : reqHeader+plen]
		}
		subs = append(subs, sub)
		rest = rest[reqHeader+plen:]
	}
	if len(rest) != 0 {
		return subs, fmt.Errorf("%w: %d trailing bytes", ErrBatchCorrupt, len(rest))
	}
	return subs, nil
}

// DecodeBatchResponses parses an OpBatch response payload, appending each
// sub-response onto resps. Sub payloads alias buf.
func DecodeBatchResponses(buf []byte, resps []Response) ([]Response, error) {
	n, rest, err := batchCount(buf)
	if err != nil {
		return resps, err
	}
	for i := 0; i < n; i++ {
		if len(rest) < respHeader {
			return resps, fmt.Errorf("%w: truncated sub-response %d", ErrBatchCorrupt, i)
		}
		plen := int(binary.LittleEndian.Uint32(rest[17:]))
		if plen < 0 || len(rest) < respHeader+plen {
			return resps, fmt.Errorf("%w: sub-response %d payload overruns", ErrBatchCorrupt, i)
		}
		sub := Response{
			Status: Status(rest[0]),
			Addr:   addrFrom(rest[1:]),
		}
		if plen > 0 {
			sub.Payload = rest[respHeader : respHeader+plen : respHeader+plen]
		}
		resps = append(resps, sub)
		rest = rest[respHeader+plen:]
	}
	if len(rest) != 0 {
		return resps, fmt.Errorf("%w: %d trailing bytes", ErrBatchCorrupt, len(rest))
	}
	return resps, nil
}

// slicePool is a sync.Pool of slices that stores *[]T boxes rather than
// raw slices: putting a bare slice into a pool boxes its three-word header
// into a fresh interface allocation on every Put, which shows up as ~one
// alloc per recycle on the batched hot path. Pointers convert to interfaces
// allocation-free, and the empty boxes are themselves recycled, so
// steady-state get/put allocates nothing.
type slicePool[T any] struct {
	slices sync.Pool // holds *[]T with a live backing array
	boxes  sync.Pool // holds *[]T with a nil slice, awaiting reuse
	minCap int
}

func (p *slicePool[T]) get() []T {
	if q, _ := p.slices.Get().(*[]T); q != nil {
		s := *q
		*q = nil
		p.boxes.Put(q)
		return s[:0]
	}
	return make([]T, 0, p.minCap)
}

func (p *slicePool[T]) put(s []T) {
	q, _ := p.boxes.Get().(*[]T)
	if q == nil {
		q = new([]T)
	}
	*q = s[:0]
	p.slices.Put(q)
}

// Slice pools for the batched hot path: a batch borrows its sub-request and
// sub-response slices (and the server its packed-payload scratch) here so
// the marginal allocation cost per sub-op stays near zero.
var (
	subReqPool  = slicePool[Request]{minCap: 64}
	subRespPool = slicePool[Response]{minCap: 64}
	packPool    = slicePool[byte]{minCap: 4096}
)

// GetSubRequests borrows an empty sub-request slice.
func GetSubRequests() []Request { return subReqPool.get() }

// PutSubRequests recycles a slice from GetSubRequests. The elements may
// alias decoded buffers, so they are cleared before pooling.
func PutSubRequests(s []Request) {
	for i := range s {
		s[i] = Request{}
	}
	subReqPool.put(s)
}

// GetSubResponses borrows an empty sub-response slice.
func GetSubResponses() []Response { return subRespPool.get() }

// PutSubResponses recycles a slice from GetSubResponses.
func PutSubResponses(s []Response) {
	for i := range s {
		s[i] = Response{}
	}
	subRespPool.put(s)
}

// getPackBuf borrows a payload-packing scratch buffer.
func getPackBuf() []byte { return packPool.get() }

// putPackBuf recycles a buffer from getPackBuf.
func putPackBuf(b []byte) { packPool.put(b) }
