// Package rpc implements CoRM's RPC layer (§2.2.2): the wire protocol for
// memory-management operations and the worker pool that drains the shared
// RPC queue. One-sided reads never pass through here — that is the point
// of the paper — but every other Table 2 operation does.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"corm/internal/core"
)

// OpCode identifies an RPC operation.
type OpCode uint8

const (
	OpAlloc OpCode = iota + 1
	OpFree
	OpRead
	OpWrite
	OpRelease
	OpInfo  // fetch store parameters (classes, block size) at connect time
	OpBatch // N sub-operations in one frame; see batch.go for the framing

	// Near-data compute: operations executed next to the data, under the
	// per-block locks, in one round trip (pushdown.go has the payload
	// encodings). They close the two-round-trip window a client-side
	// read-modify-write leaves open to compaction.
	OpCAS       // compare-and-swap a byte range inside the object
	OpFetchAdd  // fetch-and-add a little-endian u64 inside the object
	OpCondWrite // conditional full-object write (if-version / if-absent)
	OpScan      // predicate-filtered scan over one size class
)

func (o OpCode) String() string {
	switch o {
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpRelease:
		return "release"
	case OpInfo:
		return "info"
	case OpBatch:
		return "batch"
	case OpCAS:
		return "cas"
	case OpFetchAdd:
		return "fetchadd"
	case OpCondWrite:
		return "condwrite"
	case OpScan:
		return "scan"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is an RPC result code.
type Status uint8

const (
	StatusOK Status = iota
	StatusNotFound
	StatusCompacting
	StatusInvalid
	StatusNoClass
	StatusError
	// StatusTooLarge rejects a batch whose packed response would exceed the
	// transport frame limit; the client must split the batch.
	StatusTooLarge
	// StatusConflict reports a pushdown condition that did not hold (CAS
	// compare mismatch, CondWrite version mismatch). The operation was not
	// applied; retrying it verbatim is safe but will conflict again until
	// the caller refreshes its view.
	StatusConflict
	// StatusNoData rejects a data-dependent pushdown op on an
	// accounting-only (non-data-backed) store.
	StatusNoData
	// StatusThrottled sheds a request the server refused to queue: every
	// worker was busy and the waiting line was at its configured depth
	// limit. The operation was NOT attempted — retrying after backoff is
	// always safe, and callers should treat it as overload pressure, not
	// as a node fault (it must never trip a circuit breaker).
	StatusThrottled
	// StatusCorrupt reports a memory-safety canary violation: the slot's
	// guard bytes were overwritten, so the payload cannot be trusted.
	StatusCorrupt
)

// ErrTooLarge is the client-side sentinel for StatusTooLarge.
var ErrTooLarge = errors.New("rpc: batch response exceeds frame limit")

// ErrThrottled is the client-side sentinel for StatusThrottled: the server
// shed the request under load before executing it. Deliberately NOT a
// transport error — the connection is healthy, the node is just saturated.
var ErrThrottled = errors.New("rpc: request shed by server load control")

// StatusOf maps store errors onto wire codes.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, core.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, core.ErrCompacting):
		return StatusCompacting
	case errors.Is(err, core.ErrInvalidAddr):
		return StatusInvalid
	case errors.Is(err, core.ErrNoClass):
		return StatusNoClass
	case errors.Is(err, core.ErrConflict):
		return StatusConflict
	case errors.Is(err, core.ErrNoData):
		return StatusNoData
	case errors.Is(err, ErrThrottled):
		return StatusThrottled
	case errors.Is(err, core.ErrCorruption):
		return StatusCorrupt
	case errors.Is(err, core.ErrShortBuffer):
		// A pushdown range that overruns the object is a malformed request,
		// not a server fault.
		return StatusInvalid
	}
	return StatusError
}

// Err converts a non-OK status back into a sentinel error.
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusNotFound:
		return core.ErrNotFound
	case StatusCompacting:
		return core.ErrCompacting
	case StatusInvalid:
		return core.ErrInvalidAddr
	case StatusNoClass:
		return core.ErrNoClass
	case StatusTooLarge:
		return ErrTooLarge
	case StatusConflict:
		return core.ErrConflict
	case StatusNoData:
		return core.ErrNoData
	case StatusThrottled:
		return ErrThrottled
	case StatusCorrupt:
		return core.ErrCorruption
	}
	return errors.New("rpc: remote error")
}

// Request is one RPC call.
type Request struct {
	Op      OpCode
	Addr    core.Addr
	Size    uint32 // Alloc: object size; Read: buffer size
	Payload []byte // Write: object contents
}

// Response is the reply.
type Response struct {
	Status  Status
	Addr    core.Addr // corrected/new pointer (Alloc, Release, corrected ops)
	Payload []byte    // Read results; Info: encoded parameters
}

const reqHeader = 1 + 16 + 4 + 4 // op + addr + size + payload len

// addrFrom decodes a 16-byte little-endian Addr at the head of buf.
func addrFrom(buf []byte) core.Addr {
	return core.Addr{Lo: binary.LittleEndian.Uint64(buf), Hi: binary.LittleEndian.Uint64(buf[8:])}
}

// Marshal encodes the request.
func (r *Request) Marshal() []byte {
	return r.MarshalAppend(make([]byte, 0, reqHeader+len(r.Payload)))
}

// MarshalAppend encodes the request onto dst — the allocation-free variant
// the transport hot path uses with pooled buffers.
func (r *Request) MarshalAppend(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, reqHeader+len(r.Payload))...)
	buf := dst[off:]
	buf[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(buf[1:], r.Addr.Lo)
	binary.LittleEndian.PutUint64(buf[9:], r.Addr.Hi)
	binary.LittleEndian.PutUint32(buf[17:], r.Size)
	binary.LittleEndian.PutUint32(buf[21:], uint32(len(r.Payload)))
	copy(buf[25:], r.Payload)
	return dst
}

// UnmarshalRequest decodes a request frame.
func UnmarshalRequest(buf []byte) (Request, error) {
	if len(buf) < reqHeader {
		return Request{}, fmt.Errorf("rpc: short request (%d bytes)", len(buf))
	}
	r := Request{
		Op:   OpCode(buf[0]),
		Addr: core.Addr{Lo: binary.LittleEndian.Uint64(buf[1:]), Hi: binary.LittleEndian.Uint64(buf[9:])},
		Size: binary.LittleEndian.Uint32(buf[17:]),
	}
	n := binary.LittleEndian.Uint32(buf[21:])
	if int(n) != len(buf)-reqHeader {
		return Request{}, fmt.Errorf("rpc: payload length mismatch (%d vs %d)", n, len(buf)-reqHeader)
	}
	if n > 0 {
		r.Payload = append([]byte(nil), buf[25:]...)
	}
	return r, nil
}

// UnmarshalRequestView decodes a request frame without copying: the
// returned request's Payload aliases buf. The transport server uses it
// with receive-buffer leases — the frame stays leased until the request
// is fully executed, so the alias is safe.
func UnmarshalRequestView(buf []byte) (Request, error) {
	if len(buf) < reqHeader {
		return Request{}, fmt.Errorf("rpc: short request (%d bytes)", len(buf))
	}
	r := Request{
		Op:   OpCode(buf[0]),
		Addr: core.Addr{Lo: binary.LittleEndian.Uint64(buf[1:]), Hi: binary.LittleEndian.Uint64(buf[9:])},
		Size: binary.LittleEndian.Uint32(buf[17:]),
	}
	n := binary.LittleEndian.Uint32(buf[21:])
	if int(n) != len(buf)-reqHeader {
		return Request{}, fmt.Errorf("rpc: payload length mismatch (%d vs %d)", n, len(buf)-reqHeader)
	}
	if n > 0 {
		r.Payload = buf[25:]
	}
	return r, nil
}

const respHeader = 1 + 16 + 4

// Marshal encodes the response.
func (r *Response) Marshal() []byte {
	return r.MarshalAppend(make([]byte, 0, respHeader+len(r.Payload)))
}

// MarshalAppend encodes the response onto dst — the allocation-free variant
// the transport hot path uses with pooled buffers.
func (r *Response) MarshalAppend(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, respHeader+len(r.Payload))...)
	buf := dst[off:]
	buf[0] = byte(r.Status)
	binary.LittleEndian.PutUint64(buf[1:], r.Addr.Lo)
	binary.LittleEndian.PutUint64(buf[9:], r.Addr.Hi)
	binary.LittleEndian.PutUint32(buf[17:], uint32(len(r.Payload)))
	copy(buf[21:], r.Payload)
	return dst
}

// UnmarshalResponse decodes a response frame.
func UnmarshalResponse(buf []byte) (Response, error) {
	if len(buf) < respHeader {
		return Response{}, fmt.Errorf("rpc: short response (%d bytes)", len(buf))
	}
	r := Response{
		Status: Status(buf[0]),
		Addr:   core.Addr{Lo: binary.LittleEndian.Uint64(buf[1:]), Hi: binary.LittleEndian.Uint64(buf[9:])},
	}
	n := binary.LittleEndian.Uint32(buf[17:])
	if int(n) != len(buf)-respHeader {
		return Response{}, fmt.Errorf("rpc: payload length mismatch")
	}
	if n > 0 {
		r.Payload = append([]byte(nil), buf[21:]...)
	}
	return r, nil
}

// UnmarshalResponseView decodes a response frame without copying: the
// returned response's Payload aliases buf. Clients use it with
// receive-buffer leases (transport.Conn.CallLease) and must keep the
// lease alive while the payload is referenced.
func UnmarshalResponseView(buf []byte) (Response, error) {
	if len(buf) < respHeader {
		return Response{}, fmt.Errorf("rpc: short response (%d bytes)", len(buf))
	}
	r := Response{
		Status: Status(buf[0]),
		Addr:   core.Addr{Lo: binary.LittleEndian.Uint64(buf[1:]), Hi: binary.LittleEndian.Uint64(buf[9:])},
	}
	n := binary.LittleEndian.Uint32(buf[17:])
	if int(n) != len(buf)-respHeader {
		return Response{}, fmt.Errorf("rpc: payload length mismatch")
	}
	if n > 0 {
		r.Payload = buf[21:]
	}
	return r, nil
}

// Info carries store parameters to clients at connect time.
type Info struct {
	BlockBytes  int
	Consistency core.ConsistencyMode
	Classes     []int
}

// Marshal encodes the info payload.
func (i *Info) Marshal() []byte {
	buf := make([]byte, 12+4*len(i.Classes))
	binary.LittleEndian.PutUint32(buf[0:], uint32(i.BlockBytes))
	binary.LittleEndian.PutUint32(buf[4:], uint32(i.Consistency))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(i.Classes)))
	for k, c := range i.Classes {
		binary.LittleEndian.PutUint32(buf[12+4*k:], uint32(c))
	}
	return buf
}

// UnmarshalInfo decodes the info payload.
func UnmarshalInfo(buf []byte) (Info, error) {
	if len(buf) < 12 {
		return Info{}, errors.New("rpc: short info")
	}
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	if len(buf) != 12+4*n {
		return Info{}, errors.New("rpc: info length mismatch")
	}
	info := Info{
		BlockBytes:  int(binary.LittleEndian.Uint32(buf[0:])),
		Consistency: core.ConsistencyMode(binary.LittleEndian.Uint32(buf[4:])),
	}
	for k := 0; k < n; k++ {
		info.Classes = append(info.Classes, int(binary.LittleEndian.Uint32(buf[12+4*k:])))
	}
	return info, nil
}
