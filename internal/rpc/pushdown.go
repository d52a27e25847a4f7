// Pushdown payload encodings: the typed request bodies of the near-data
// compute opcodes. Each opcode rides the generic Request/Response frame —
// Addr and Status travel in the frame header exactly like every other
// operation, so pointer correction and the retry machinery apply unchanged
// — and packs its operands into the request payload with the canonical
// little-endian encodings below.
//
//	OpCAS:       token(8) off(4) oldLen(4) newLen(4) old new
//	OpFetchAdd:  token(8) off(4) delta(8, two's complement)
//	OpCondWrite: token(8) mode(1) version(4) valueLen(4) value
//	OpScan:      class(1) pred(1) off(4) limit(4) argLen(4) arg
//
// CAS, FetchAdd and CondWrite are ordinary single-op records, so a
// multi-key read-modify-write is an OpBatch whose sub-ops are these
// records, mixed freely with reads and writes.
//
// Responses: FetchAdd returns the pre-add value (8 bytes). CondWrite
// returns the object version (4 bytes) — the new version on success, the
// observed one on StatusConflict. CAS returns no payload (StatusConflict
// alone reports a lost race; the caller re-reads). Scan returns matches in
// the OpBatch sub-response framing: count(4) then per match status(1)
// addr(16) plen(4) payload, each match carrying the object's current
// pointer, so a scan doubles as bulk pointer correction.
//
// The token is a client-minted per-operation dedup token (0 = none): a
// mutating pushdown op re-issued across a transport reconnect presents the
// same token, and the server replays the recorded outcome instead of
// applying the mutation twice. This is what makes CAS/FetchAdd safely
// retryable — a class of operation the plain write path must never retry.
package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrPushdownCorrupt reports a pushdown payload that does not parse.
var ErrPushdownCorrupt = errors.New("rpc: corrupt pushdown payload")

// CondWrite modes.
const (
	// CondIfVersion applies the write only if the object's version equals
	// the request's Version field.
	CondIfVersion uint8 = 1
	// CondIfAbsent applies the write only if the object has never been
	// written (version 0) since allocation.
	CondIfAbsent uint8 = 2
)

// Scan predicates. Numeric predicates interpret 8 bytes at Offset as a
// little-endian u64 and require an 8-byte Arg.
const (
	PredEq    uint8 = 1 // payload[off:off+len(arg)] == arg
	PredNe    uint8 = 2 // payload[off:off+len(arg)] != arg
	PredLtU64 uint8 = 3 // u64le(payload[off:]) < u64le(arg)
	PredGtU64 uint8 = 4 // u64le(payload[off:]) > u64le(arg)
)

// EvalPred evaluates a scan predicate against an object payload. A range
// that overruns the payload never matches. Exported so clients can apply
// the identical predicate to locally fetched records (the fallback path the
// consistency property test compares against).
func EvalPred(pred uint8, off int, arg, pay []byte) bool {
	if off < 0 || off+len(arg) > len(pay) {
		return false
	}
	switch pred {
	case PredEq:
		return bytes.Equal(pay[off:off+len(arg)], arg)
	case PredNe:
		return !bytes.Equal(pay[off:off+len(arg)], arg)
	case PredLtU64:
		if len(arg) != 8 || off+8 > len(pay) {
			return false
		}
		return binary.LittleEndian.Uint64(pay[off:]) < binary.LittleEndian.Uint64(arg)
	case PredGtU64:
		if len(arg) != 8 || off+8 > len(pay) {
			return false
		}
		return binary.LittleEndian.Uint64(pay[off:]) > binary.LittleEndian.Uint64(arg)
	}
	return false
}

// validPred reports whether a predicate byte names a known predicate.
func validPred(pred uint8) bool { return pred >= PredEq && pred <= PredGtU64 }

// --- CAS ---

const casReqHeader = 8 + 4 + 4 + 4 // token + offset + oldLen + newLen

// CASReq is the OpCAS payload: compare len(Old) bytes at Offset with Old
// and, only if they match, overwrite len(New) bytes at Offset with New.
type CASReq struct {
	Token  uint64
	Offset uint32
	Old    []byte
	New    []byte
}

// MarshalAppend encodes the CAS payload onto dst.
func (r *CASReq) MarshalAppend(dst []byte) []byte {
	var hdr [casReqHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], r.Token)
	binary.LittleEndian.PutUint32(hdr[8:], r.Offset)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(r.Old)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(r.New)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Old...)
	return append(dst, r.New...)
}

// Marshal encodes the CAS payload.
func (r *CASReq) Marshal() []byte {
	return r.MarshalAppend(make([]byte, 0, casReqHeader+len(r.Old)+len(r.New)))
}

// UnmarshalCASReqView decodes an OpCAS payload without copying: Old and New
// alias buf, which must stay alive while the request is used.
func UnmarshalCASReqView(buf []byte) (CASReq, error) {
	if len(buf) < casReqHeader {
		return CASReq{}, fmt.Errorf("%w: short CAS header (%d bytes)", ErrPushdownCorrupt, len(buf))
	}
	oldLen := int(binary.LittleEndian.Uint32(buf[12:]))
	newLen := int(binary.LittleEndian.Uint32(buf[16:]))
	if oldLen < 0 || newLen < 0 || len(buf) != casReqHeader+oldLen+newLen {
		return CASReq{}, fmt.Errorf("%w: CAS length mismatch", ErrPushdownCorrupt)
	}
	r := CASReq{
		Token:  binary.LittleEndian.Uint64(buf),
		Offset: binary.LittleEndian.Uint32(buf[8:]),
	}
	if oldLen > 0 {
		r.Old = buf[casReqHeader : casReqHeader+oldLen : casReqHeader+oldLen]
	}
	if newLen > 0 {
		r.New = buf[casReqHeader+oldLen : casReqHeader+oldLen+newLen : casReqHeader+oldLen+newLen]
	}
	return r, nil
}

// --- FetchAdd ---

const faddReqBytes = 8 + 4 + 8 // token + offset + delta

// FAddReq is the OpFetchAdd payload: atomically add Delta to the
// little-endian u64 at Offset, returning the pre-add value.
type FAddReq struct {
	Token  uint64
	Offset uint32
	Delta  int64
}

// MarshalAppend encodes the FetchAdd payload onto dst.
func (r *FAddReq) MarshalAppend(dst []byte) []byte {
	var buf [faddReqBytes]byte
	binary.LittleEndian.PutUint64(buf[0:], r.Token)
	binary.LittleEndian.PutUint32(buf[8:], r.Offset)
	binary.LittleEndian.PutUint64(buf[12:], uint64(r.Delta))
	return append(dst, buf[:]...)
}

// Marshal encodes the FetchAdd payload.
func (r *FAddReq) Marshal() []byte {
	return r.MarshalAppend(make([]byte, 0, faddReqBytes))
}

// UnmarshalFAddReq decodes an OpFetchAdd payload (fixed-size; no aliasing).
func UnmarshalFAddReq(buf []byte) (FAddReq, error) {
	if len(buf) != faddReqBytes {
		return FAddReq{}, fmt.Errorf("%w: FetchAdd payload is %d bytes, want %d", ErrPushdownCorrupt, len(buf), faddReqBytes)
	}
	return FAddReq{
		Token:  binary.LittleEndian.Uint64(buf),
		Offset: binary.LittleEndian.Uint32(buf[8:]),
		Delta:  int64(binary.LittleEndian.Uint64(buf[12:])),
	}, nil
}

// --- CondWrite ---

const condWriteHeader = 8 + 1 + 4 + 4 // token + mode + version + valueLen

// CondWriteReq is the OpCondWrite payload: a full-object write applied only
// when the version condition holds.
type CondWriteReq struct {
	Token   uint64
	Mode    uint8  // CondIfVersion | CondIfAbsent
	Version uint32 // expected version (CondIfVersion)
	Value   []byte
}

// MarshalAppend encodes the CondWrite payload onto dst.
func (r *CondWriteReq) MarshalAppend(dst []byte) []byte {
	var hdr [condWriteHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], r.Token)
	hdr[8] = r.Mode
	binary.LittleEndian.PutUint32(hdr[9:], r.Version)
	binary.LittleEndian.PutUint32(hdr[13:], uint32(len(r.Value)))
	dst = append(dst, hdr[:]...)
	return append(dst, r.Value...)
}

// Marshal encodes the CondWrite payload.
func (r *CondWriteReq) Marshal() []byte {
	return r.MarshalAppend(make([]byte, 0, condWriteHeader+len(r.Value)))
}

// UnmarshalCondWriteReqView decodes an OpCondWrite payload without copying:
// Value aliases buf.
func UnmarshalCondWriteReqView(buf []byte) (CondWriteReq, error) {
	if len(buf) < condWriteHeader {
		return CondWriteReq{}, fmt.Errorf("%w: short CondWrite header (%d bytes)", ErrPushdownCorrupt, len(buf))
	}
	vlen := int(binary.LittleEndian.Uint32(buf[13:]))
	if vlen < 0 || len(buf) != condWriteHeader+vlen {
		return CondWriteReq{}, fmt.Errorf("%w: CondWrite length mismatch", ErrPushdownCorrupt)
	}
	r := CondWriteReq{
		Token:   binary.LittleEndian.Uint64(buf),
		Mode:    buf[8],
		Version: binary.LittleEndian.Uint32(buf[9:]),
	}
	if vlen > 0 {
		r.Value = buf[condWriteHeader : condWriteHeader+vlen : condWriteHeader+vlen]
	}
	return r, nil
}

// --- Scan ---

const scanReqHeader = 1 + 1 + 4 + 4 + 4 // class + pred + offset + limit + argLen

// ScanReq is the OpScan payload: enumerate one size class server-side,
// returning every live object whose payload satisfies the predicate.
type ScanReq struct {
	Class  uint8
	Pred   uint8
	Offset uint32
	Limit  uint32 // max matches returned (0 = all that fit the frame)
	Arg    []byte
}

// MarshalAppend encodes the scan payload onto dst.
func (r *ScanReq) MarshalAppend(dst []byte) []byte {
	var hdr [scanReqHeader]byte
	hdr[0] = r.Class
	hdr[1] = r.Pred
	binary.LittleEndian.PutUint32(hdr[2:], r.Offset)
	binary.LittleEndian.PutUint32(hdr[6:], r.Limit)
	binary.LittleEndian.PutUint32(hdr[10:], uint32(len(r.Arg)))
	dst = append(dst, hdr[:]...)
	return append(dst, r.Arg...)
}

// Marshal encodes the scan payload.
func (r *ScanReq) Marshal() []byte {
	return r.MarshalAppend(make([]byte, 0, scanReqHeader+len(r.Arg)))
}

// UnmarshalScanReqView decodes an OpScan payload without copying: Arg
// aliases buf.
func UnmarshalScanReqView(buf []byte) (ScanReq, error) {
	if len(buf) < scanReqHeader {
		return ScanReq{}, fmt.Errorf("%w: short scan header (%d bytes)", ErrPushdownCorrupt, len(buf))
	}
	alen := int(binary.LittleEndian.Uint32(buf[10:]))
	if alen < 0 || len(buf) != scanReqHeader+alen {
		return ScanReq{}, fmt.Errorf("%w: scan length mismatch", ErrPushdownCorrupt)
	}
	r := ScanReq{
		Class:  buf[0],
		Pred:   buf[1],
		Offset: binary.LittleEndian.Uint32(buf[2:]),
		Limit:  binary.LittleEndian.Uint32(buf[6:]),
	}
	if alen > 0 {
		r.Arg = buf[scanReqHeader : scanReqHeader+alen : scanReqHeader+alen]
	}
	return r, nil
}
