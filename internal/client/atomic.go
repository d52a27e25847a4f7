// Near-data compute client APIs: one round trip per read-modify-write, no
// compaction window. Each mutating call mints an op-level dedup token, so
// unlike Write these ARE re-issued across transport reconnects — the server
// replays the recorded outcome of a duplicate delivery instead of applying
// it twice. StatusCompacting responses (the op raced a merge) are retried
// here with the corrected pointer, bounded by Retries/RetryBackoff, so
// callers see compaction only as latency, exactly like the read paths.
package client

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"corm/internal/core"
	"corm/internal/rpc"
)

// nextToken mints a per-operation dedup token: a random per-context base
// plus a sequence number. Token zero means "no dedup" on the wire, so it is
// never handed out.
func (c *Ctx) nextToken() uint64 {
	for {
		if t := c.tokenBase + c.tokenSeq.Add(1); t != 0 {
			return t
		}
	}
}

// callPushdown issues one pushdown op, folding pointer corrections into
// addr and retrying compaction-locked attempts with the corrected pointer.
// It returns the first 8 response-payload bytes by value (the pushdown
// payloads are ≤ 8 bytes) so the receive lease never escapes.
func (c *Ctx) callPushdown(op rpc.OpCode, addr *core.Addr, body []byte) (val [8]byte, n int, err error) {
	req := rpc.Request{Op: op, Addr: *addr, Payload: body}
	for attempt := 0; ; attempt++ {
		resp, lease, cerr := c.callLease(req, true)
		if cerr != nil {
			return val, 0, cerr
		}
		c.adopt(addr, resp.Addr)
		e := resp.Status.Err()
		n = copy(val[:], resp.Payload)
		lease.Release()
		if errors.Is(e, core.ErrCompacting) && attempt < c.Retries {
			clPushdownRetries.Inc()
			time.Sleep(c.RetryBackoff)
			req.Addr = *addr
			continue
		}
		return val, n, e
	}
}

// CAS atomically compares len(old) payload bytes at off with old and, on a
// match, overwrites them with new — server-side, under the object's block
// lock. A mismatch returns core.ErrConflict with nothing written; the
// caller re-reads and retries at its own pace.
func (c *Ctx) CAS(addr *core.Addr, off int, old, new []byte) error {
	r := rpc.CASReq{Token: c.nextToken(), Offset: uint32(off), Old: old, New: new}
	body := r.MarshalAppend(getScratch(0)[:0])
	_, _, err := c.callPushdown(rpc.OpCAS, addr, body)
	putScratch(body)
	return err
}

// FetchAdd atomically adds delta to the little-endian u64 at off inside the
// object, returning the pre-add value.
func (c *Ctx) FetchAdd(addr *core.Addr, off int, delta int64) (uint64, error) {
	r := rpc.FAddReq{Token: c.nextToken(), Offset: uint32(off), Delta: delta}
	body := r.MarshalAppend(getScratch(0)[:0])
	val, n, err := c.callPushdown(rpc.OpFetchAdd, addr, body)
	putScratch(body)
	if err != nil {
		return 0, err
	}
	if n != 8 {
		return 0, fmt.Errorf("client: FetchAdd: %d-byte response payload", n)
	}
	return binary.LittleEndian.Uint64(val[:]), nil
}

// PutIf writes the whole object payload only if its version still equals
// version — optimistic concurrency without a read-back. It returns the
// object's resulting version: the new one on success, the observed one
// alongside core.ErrConflict, which seeds the next attempt.
func (c *Ctx) PutIf(addr *core.Addr, version uint32, value []byte) (uint32, error) {
	return c.condWrite(addr, rpc.CondIfVersion, version, value)
}

// PutIfAbsent writes the object payload only if the object has never been
// written (version 0) — first-writer-wins initialization.
func (c *Ctx) PutIfAbsent(addr *core.Addr, value []byte) (uint32, error) {
	return c.condWrite(addr, rpc.CondIfAbsent, 0, value)
}

func (c *Ctx) condWrite(addr *core.Addr, mode uint8, version uint32, value []byte) (uint32, error) {
	r := rpc.CondWriteReq{Token: c.nextToken(), Mode: mode, Version: version, Value: value}
	body := r.MarshalAppend(getScratch(0)[:0])
	val, n, err := c.callPushdown(rpc.OpCondWrite, addr, body)
	putScratch(body)
	var ver uint32
	if n == 4 {
		ver = binary.LittleEndian.Uint32(val[:])
	}
	return ver, err
}

// ScanMatch is one object returned by ScanWhere: its current pointer (a
// scan doubles as bulk pointer correction) and a copy of its payload.
type ScanMatch struct {
	Addr    core.Addr
	Payload []byte
}

// ScanWhere runs a predicate-filtered scan over one size class on the
// server, returning every live object whose payload matches — one round
// trip instead of enumerate-then-read. pred is one of the rpc.Pred*
// predicates evaluated at off against arg; limit bounds the matches
// (0 = all that fit the response frame). The scan is compaction-aware:
// records moved by a concurrent merge are returned exactly once.
func (c *Ctx) ScanWhere(class int, pred uint8, off int, arg []byte, limit int) ([]ScanMatch, error) {
	r := rpc.ScanReq{Class: uint8(class), Pred: pred, Offset: uint32(off), Limit: uint32(limit), Arg: arg}
	body := r.MarshalAppend(getScratch(0)[:0])
	resp, lease, err := c.callLease(rpc.Request{Op: rpc.OpScan, Payload: body}, true)
	putScratch(body)
	if err != nil {
		return nil, err
	}
	if e := resp.Status.Err(); e != nil {
		lease.Release()
		return nil, e
	}
	subs, derr := rpc.DecodeBatchResponses(resp.Payload, rpc.GetSubResponses())
	if derr != nil {
		rpc.PutSubResponses(subs)
		lease.Release()
		return nil, derr
	}
	var matches []ScanMatch
	if len(subs) > 0 {
		matches = make([]ScanMatch, 0, len(subs))
		for i := range subs {
			matches = append(matches, ScanMatch{
				Addr:    subs[i].Addr,
				Payload: append([]byte(nil), subs[i].Payload...),
			})
		}
	}
	rpc.PutSubResponses(subs)
	lease.Release()
	return matches, nil
}

// RMW operation kinds.
const (
	RMWCas       uint8 = 1
	RMWFetchAdd  uint8 = 2
	RMWCondWrite uint8 = 3
)

// RMWOp is one operation in a multi-key read-modify-write batch.
type RMWOp struct {
	Kind   uint8      // RMWCas | RMWFetchAdd | RMWCondWrite
	Addr   *core.Addr // corrected in place like single ops
	Offset int        // CAS/FetchAdd byte offset

	Old, New []byte // RMWCas
	Delta    int64  // RMWFetchAdd

	Mode    uint8  // RMWCondWrite: rpc.CondIfVersion (default) | rpc.CondIfAbsent
	Version uint32 // RMWCondWrite expected version
	Value   []byte // RMWCondWrite payload
}

// RMWResult is the per-operation outcome of an RMW batch.
type RMWResult struct {
	Old     uint64 // FetchAdd pre-add value
	Version uint32 // CondWrite resulting version
	Err     error
}

// RMW executes a multi-key read-modify-write batch in one round trip. Each
// operation is atomic per key (executed under its block's lock); the batch
// as a whole is not a transaction — operations succeed or fail
// independently, each with its own result. Every sub-op carries a dedup
// token, so the frame is re-issued across reconnects, and sub-ops that
// raced a compaction are transparently retried with corrected pointers.
func (c *Ctx) RMW(ops []RMWOp) ([]RMWResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	for i := range ops {
		if ops[i].Kind < RMWCas || ops[i].Kind > RMWCondWrite {
			return nil, fmt.Errorf("client: RMW: unknown kind %d at op %d", ops[i].Kind, i)
		}
		if ops[i].Addr == nil {
			return nil, fmt.Errorf("client: RMW: nil addr at op %d", i)
		}
	}
	results := make([]RMWResult, len(ops))
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	for attempt := 0; ; attempt++ {
		if err := c.rmwOnce(ops, idx, results); err != nil {
			return nil, err
		}
		retry := idx[:0]
		for _, i := range idx {
			if errors.Is(results[i].Err, core.ErrCompacting) {
				retry = append(retry, i)
			}
		}
		if len(retry) == 0 || attempt >= c.Retries {
			return results, nil
		}
		clPushdownRetries.Inc()
		time.Sleep(c.RetryBackoff)
		idx = retry
	}
}

// rmwOnce issues one OpBatch frame covering ops[idx...], decoding each
// sub-response into results[idx[k]].
func (c *Ctx) rmwOnce(ops []RMWOp, idx []int, results []RMWResult) error {
	scratch := getScratch(0)
	err := c.callBatch(len(idx), true,
		func(k int) rpc.Request {
			op := &ops[idx[k]]
			scratch = scratch[:0]
			var wireOp rpc.OpCode
			switch op.Kind {
			case RMWCas:
				r := rpc.CASReq{Token: c.nextToken(), Offset: uint32(op.Offset), Old: op.Old, New: op.New}
				scratch = r.MarshalAppend(scratch)
				wireOp = rpc.OpCAS
			case RMWFetchAdd:
				r := rpc.FAddReq{Token: c.nextToken(), Offset: uint32(op.Offset), Delta: op.Delta}
				scratch = r.MarshalAppend(scratch)
				wireOp = rpc.OpFetchAdd
			default:
				mode := op.Mode
				if mode == 0 {
					mode = rpc.CondIfVersion
				}
				r := rpc.CondWriteReq{Token: c.nextToken(), Mode: mode, Version: op.Version, Value: op.Value}
				scratch = r.MarshalAppend(scratch)
				wireOp = rpc.OpCondWrite
			}
			return rpc.Request{Op: wireOp, Addr: *op.Addr, Payload: scratch}
		},
		func(k int, sub rpc.Response) {
			i := idx[k]
			op := &ops[i]
			c.adopt(op.Addr, sub.Addr)
			res := RMWResult{Err: sub.Status.Err()}
			switch {
			case op.Kind == RMWFetchAdd && res.Err == nil && len(sub.Payload) == 8:
				res.Old = binary.LittleEndian.Uint64(sub.Payload)
			case op.Kind == RMWCondWrite && len(sub.Payload) == 4:
				res.Version = binary.LittleEndian.Uint32(sub.Payload)
			}
			results[i] = res
		})
	putScratch(scratch)
	return err
}

// MultiFetchAdd applies the same delta to the counter at off in every
// object, one round trip for all keys — the bulk form of FetchAdd.
func (c *Ctx) MultiFetchAdd(addrs []*core.Addr, off int, delta int64) ([]RMWResult, error) {
	ops := make([]RMWOp, len(addrs))
	for i, a := range addrs {
		ops[i] = RMWOp{Kind: RMWFetchAdd, Addr: a, Offset: off, Delta: delta}
	}
	return c.RMW(ops)
}
