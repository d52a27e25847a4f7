// Batched operations: the client half of the OpBatch pipeline. A Multi*
// call packs N sub-operations into one RPC frame, pays one round trip and
// one pending-map entry, and gets back N sub-responses — each with its own
// status and its own corrected pointer, so compaction stays exactly as
// visible (and as transparent) as with single operations.
//
// Retry rules are enforced per batch kind: MultiRead batches contain only
// idempotent sub-ops and RMW batches only tokened atomics the server
// deduplicates, so both are re-issued across transport reconnects like
// Read; MultiWrite, MultiAlloc, and MultiFree are never re-issued — a
// broken channel cannot tell whether the server executed the lost frame.
package client

import (
	"fmt"

	"corm/internal/core"
	"corm/internal/rpc"
)

// OpResult is the outcome of one sub-operation in a batched call.
type OpResult struct {
	// N is the payload length copied into the caller's buffer (reads).
	N int
	// Addr is the resulting pointer for MultiAlloc sub-ops. Reads, writes,
	// and frees fold pointer corrections into the caller's pointer instead.
	Addr core.Addr
	// Err is this sub-operation's own status; other sub-ops in the batch
	// succeed or fail independently.
	Err error
}

// marshalBatch packs n sub-requests built by fill into a pooled payload
// buffer. Hand the buffer back with putScratch after the call returns.
func marshalBatch(n int, fill func(i int) rpc.Request) []byte {
	body := rpc.AppendBatchHeader(getScratch(0)[:0], n)
	for i := 0; i < n; i++ {
		sub := fill(i)
		body = rpc.AppendSubRequest(body, &sub)
	}
	return body
}

// callBatch performs one OpBatch exchange and decodes the sub-responses
// into results via each. idempotent selects the reconnect-retry path.
func (c *Ctx) callBatch(n int, idempotent bool, fill func(i int) rpc.Request, each func(i int, sub rpc.Response)) error {
	if n == 0 {
		return nil
	}
	body := marshalBatch(n, fill)
	req := rpc.Request{Op: rpc.OpBatch, Payload: body}
	// The packed sub-responses are decoded directly out of the receive
	// lease — the only copies left in a batched read are the per-sub
	// copies into the caller's buffers.
	resp, lease, err := c.callLease(req, idempotent)
	putScratch(body)
	if err != nil {
		return err
	}
	if e := resp.Status.Err(); e != nil {
		lease.Release()
		return e
	}
	subs, derr := rpc.DecodeBatchResponses(resp.Payload, rpc.GetSubResponses())
	if derr == nil && len(subs) != n {
		derr = fmt.Errorf("%w: %d sub-responses for %d sub-requests", rpc.ErrBatchCorrupt, len(subs), n)
	}
	if derr != nil {
		rpc.PutSubResponses(subs)
		lease.Release()
		return derr
	}
	for i := range subs {
		each(i, subs[i])
	}
	rpc.PutSubResponses(subs)
	lease.Release()
	return nil
}

// MultiRead reads len(addrs) objects in one round trip; bufs[i] receives
// object i. Pointer corrections are folded into each addrs[i] exactly as
// Read does. The batch is idempotent, so it is transparently re-issued
// across transport reconnects. The returned error is batch-level
// (transport fault, corrupt frame, oversized batch); per-object outcomes
// are in the results.
func (c *Ctx) MultiRead(addrs []*core.Addr, bufs [][]byte) ([]OpResult, error) {
	if len(addrs) != len(bufs) {
		return nil, fmt.Errorf("client: MultiRead: %d addrs, %d bufs", len(addrs), len(bufs))
	}
	if len(addrs) == 0 {
		return nil, nil
	}
	results := make([]OpResult, len(addrs))
	err := c.callBatch(len(addrs), true,
		func(i int) rpc.Request {
			return rpc.Request{Op: rpc.OpRead, Addr: *addrs[i], Size: uint32(len(bufs[i]))}
		},
		func(i int, sub rpc.Response) {
			c.adopt(addrs[i], sub.Addr)
			if e := sub.Status.Err(); e != nil {
				results[i] = OpResult{Err: e}
				return
			}
			results[i] = OpResult{N: copy(bufs[i], sub.Payload)}
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MultiWrite updates len(addrs) objects in one round trip; payloads[i] is
// written to object i. Writes are never re-issued across reconnects: a
// transport fault surfaces as the batch-level error and the caller must
// decide, per application, whether re-writing is safe.
func (c *Ctx) MultiWrite(addrs []*core.Addr, payloads [][]byte) ([]OpResult, error) {
	if len(addrs) != len(payloads) {
		return nil, fmt.Errorf("client: MultiWrite: %d addrs, %d payloads", len(addrs), len(payloads))
	}
	if len(addrs) == 0 {
		return nil, nil
	}
	results := make([]OpResult, len(addrs))
	err := c.callBatch(len(addrs), false,
		func(i int) rpc.Request {
			return rpc.Request{Op: rpc.OpWrite, Addr: *addrs[i], Payload: payloads[i]}
		},
		func(i int, sub rpc.Response) {
			c.adopt(addrs[i], sub.Addr)
			results[i] = OpResult{Err: sub.Status.Err()}
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MultiAlloc allocates len(sizes) objects in one round trip; the resulting
// pointers are in the results' Addr fields. Not re-issued across
// reconnects (a lost frame may have allocated server-side).
func (c *Ctx) MultiAlloc(sizes []int) ([]OpResult, error) {
	if len(sizes) == 0 {
		return nil, nil
	}
	results := make([]OpResult, len(sizes))
	err := c.callBatch(len(sizes), false,
		func(i int) rpc.Request {
			return rpc.Request{Op: rpc.OpAlloc, Size: uint32(sizes[i])}
		},
		func(i int, sub rpc.Response) {
			results[i] = OpResult{Addr: sub.Addr, Err: sub.Status.Err()}
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MultiFree releases len(addrs) objects in one round trip, folding pointer
// corrections into each addrs[i] first. Not re-issued across reconnects.
func (c *Ctx) MultiFree(addrs []*core.Addr) ([]OpResult, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	results := make([]OpResult, len(addrs))
	err := c.callBatch(len(addrs), false,
		func(i int) rpc.Request {
			return rpc.Request{Op: rpc.OpFree, Addr: *addrs[i]}
		},
		func(i int, sub rpc.Response) {
			c.adopt(addrs[i], sub.Addr)
			results[i] = OpResult{Err: sub.Status.Err()}
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}
