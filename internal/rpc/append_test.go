package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"corm/internal/core"
)

// submitAppend runs one request through the zero-copy append path and
// decodes the marshalled response it produced.
func submitAppend(t *testing.T, s *Server, req Request) Response {
	t.Helper()
	out := s.SubmitAppend(req, nil)
	resp, err := UnmarshalResponse(out)
	if err != nil {
		t.Fatalf("SubmitAppend produced an undecodable response: %v", err)
	}
	return resp
}

// TestSubmitAppendMatchesSubmit: the append path must be observationally
// identical to Submit for every op shape — same statuses, same corrected
// addresses, same payload bytes.
func TestSubmitAppendMatchesSubmit(t *testing.T) {
	s := testServer(t)

	alloc := submitAppend(t, s, Request{Op: OpAlloc, Size: 64})
	if alloc.Status != StatusOK {
		t.Fatalf("alloc via append path: %v", alloc.Status)
	}
	addr := alloc.Addr

	payload := bytes.Repeat([]byte{0xAB}, 64)
	if w := submitAppend(t, s, Request{Op: OpWrite, Addr: addr, Payload: payload}); w.Status != StatusOK {
		t.Fatalf("write via append path: %v", w.Status)
	}

	got := submitAppend(t, s, Request{Op: OpRead, Addr: addr, Size: 64})
	want := s.Submit(Request{Op: OpRead, Addr: addr, Size: 64})
	if got.Status != want.Status || got.Addr != want.Addr || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("append read %+v, Submit read %+v", got, want)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatalf("read back %x, wrote %x", got.Payload, payload)
	}

	// Partial read: Size below the class size truncates the payload.
	if short := submitAppend(t, s, Request{Op: OpRead, Addr: addr, Size: 16}); len(short.Payload) != 16 ||
		!bytes.Equal(short.Payload, payload[:16]) {
		t.Fatalf("partial read returned %d bytes", len(short.Payload))
	}

	// Error shapes must match too.
	bad := Request{Op: OpRead, Addr: core.Addr{Lo: ^uint64(0), Hi: ^uint64(0)}}
	if ga, gs := submitAppend(t, s, bad), s.Submit(bad); ga.Status != gs.Status {
		t.Fatalf("append bad-read status %v, Submit %v", ga.Status, gs.Status)
	}
	if free := submitAppend(t, s, Request{Op: OpFree, Addr: addr}); free.Status != StatusOK {
		t.Fatalf("free via append path: %v", free.Status)
	}
}

// sameResponse fails the test unless a and b carry the same status,
// pointer and payload bytes.
func sameResponse(t *testing.T, what string, a, b Response) {
	t.Helper()
	if a.Status != b.Status || a.Addr != b.Addr || !bytes.Equal(a.Payload, b.Payload) {
		t.Fatalf("%s: Submit %+v, SubmitAppend %+v", what, a, b)
	}
}

// TestSubmitDecodesSubmitAppend: the ops whose reply carries data have one
// implementation, the append path. Submit's reply for a read, a scan and
// a batch mixing a read, a write, a tokened FetchAdd and a CondWrite equals
// SubmitAppend's decoded reply. The batch runs twice; the second run
// replays the tokened sub-ops from the dedup cache, so the counter moves
// once and the if-absent CondWrite answers OK again instead of conflicting.
func TestSubmitDecodesSubmitAppend(t *testing.T) {
	s := testServer(t)
	data := bytes.Repeat([]byte{0x3C}, 64)
	src := pushdownObject(t, s, 64, data)
	dst := pushdownObject(t, s, 64, make([]byte, 64))
	ctr := pushdownObject(t, s, 16, make([]byte, 16))
	fresh := s.Submit(Request{Op: OpAlloc, Size: 16})
	if fresh.Status != StatusOK {
		t.Fatalf("alloc: %v", fresh.Status)
	}

	read := Request{Op: OpRead, Addr: src, Size: 64}
	sameResponse(t, "read", s.Submit(read), submitAppend(t, s, read))
	if got := s.Submit(read); !bytes.Equal(got.Payload, data) {
		t.Fatalf("read %x, wrote %x", got.Payload, data)
	}

	scan := ScanReq{Class: src.Class(), Pred: PredEq, Arg: data[:8]}
	scanReq := Request{Op: OpScan, Payload: scan.Marshal()}
	sameResponse(t, "scan", s.Submit(scanReq), submitAppend(t, s, scanReq))

	fa := FAddReq{Token: 0x51, Offset: 0, Delta: 5}
	cw := CondWriteReq{Token: 0x52, Mode: CondIfAbsent, Value: u64le(9)}
	body := MarshalBatchRequests(nil, []Request{
		{Op: OpRead, Addr: src, Size: 64},
		{Op: OpWrite, Addr: dst, Payload: data},
		{Op: OpFetchAdd, Addr: ctr, Payload: fa.Marshal()},
		{Op: OpCondWrite, Addr: fresh.Addr, Payload: cw.Marshal()},
	})
	batch := Request{Op: OpBatch, Payload: body}
	first := s.Submit(batch)
	sameResponse(t, "batch", first, submitAppend(t, s, batch))
	subs, err := DecodeBatchResponses(first.Payload, nil)
	if err != nil || len(subs) != 4 {
		t.Fatalf("batch decode: %d subs, %v", len(subs), err)
	}
	for i, sub := range subs {
		if sub.Status != StatusOK {
			t.Fatalf("sub %d: %v", i, sub.Status)
		}
	}
	if !bytes.Equal(subs[0].Payload, data) {
		t.Fatalf("batched read %x", subs[0].Payload)
	}

	probe := FAddReq{Token: 0x53, Offset: 0, Delta: 0}
	resp := s.Submit(Request{Op: OpFetchAdd, Addr: ctr, Payload: probe.Marshal()})
	if resp.Status != StatusOK || binary.LittleEndian.Uint64(resp.Payload) != 5 {
		t.Fatalf("counter after the batch ran twice: %v %x, want 5", resp.Status, resp.Payload)
	}
}

// TestSubmitAppendPreservesPrefix: the response appends after whatever the
// caller already staged in dst (the transport puts the frame header there).
func TestSubmitAppendPreservesPrefix(t *testing.T) {
	s := testServer(t)
	prefix := []byte("frame-header")
	out := s.SubmitAppend(Request{Op: OpInfo}, append([]byte(nil), prefix...))
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("prefix clobbered: %q", out[:len(prefix)])
	}
	resp, err := UnmarshalResponse(out[len(prefix):])
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("info after prefix: %v %v", resp.Status, err)
	}
}

// TestSubmitAppendClosed: a closed server answers StatusError on the
// append path, mirroring Submit.
func TestSubmitAppendClosed(t *testing.T) {
	s := testServer(t)
	s.Close()
	if resp := submitAppend(t, s, Request{Op: OpInfo}); resp.Status != StatusError {
		t.Fatalf("closed server answered %v", resp.Status)
	}
}

// TestSubmitAppendBatch: the batched append path agrees with the batched
// Submit path sub-op by sub-op, across enough sub-ops to exercise the
// worker-token sharding (when the host has spare parallelism) and the
// single-chunk fast path.
func TestSubmitAppendBatch(t *testing.T) {
	s := testServer(t)
	for _, n := range []int{1, 4, 48} {
		addrs := make([]core.Addr, n)
		payload := bytes.Repeat([]byte{0x5C}, 64)
		for i := range addrs {
			a := submitAppend(t, s, Request{Op: OpAlloc, Size: 64})
			if a.Status != StatusOK {
				t.Fatalf("alloc %d: %v", i, a.Status)
			}
			addrs[i] = a.Addr
			if w := s.Submit(Request{Op: OpWrite, Addr: addrs[i], Payload: payload}); w.Status != StatusOK {
				t.Fatalf("write %d: %v", i, w.Status)
			}
		}
		subs := make([]Request, n)
		for i := range subs {
			subs[i] = Request{Op: OpRead, Addr: addrs[i], Size: 64}
		}
		// A nested batch and a bad op must fail per-sub, not poison the frame.
		subs[0] = Request{Op: OpBatch}
		if n > 2 {
			subs[1] = Request{Op: OpCode(200)}
		}
		body := MarshalBatchRequests(nil, subs)

		out := s.SubmitAppend(Request{Op: OpBatch, Payload: body}, nil)
		resp, err := UnmarshalResponse(out)
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("n=%d: batch append: %v %v", n, resp.Status, err)
		}
		gotSubs, err := DecodeBatchResponses(resp.Payload, nil)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		wantResp := s.Submit(Request{Op: OpBatch, Payload: body})
		wantSubs, err := DecodeBatchResponses(wantResp.Payload, nil)
		if err != nil {
			t.Fatalf("n=%d: decode Submit batch: %v", n, err)
		}
		if len(gotSubs) != n || len(wantSubs) != n {
			t.Fatalf("n=%d: got %d/%d sub-responses", n, len(gotSubs), len(wantSubs))
		}
		for i := range gotSubs {
			if gotSubs[i].Status != wantSubs[i].Status || gotSubs[i].Addr != wantSubs[i].Addr ||
				!bytes.Equal(gotSubs[i].Payload, wantSubs[i].Payload) {
				t.Fatalf("n=%d sub %d: append %+v vs Submit %+v", n, i, gotSubs[i], wantSubs[i])
			}
		}
		if gotSubs[0].Status != StatusInvalid {
			t.Fatalf("nested batch answered %v, want invalid", gotSubs[0].Status)
		}
	}
}

// TestSubmitAppendBatchCorrupt: a malformed batch payload yields
// StatusInvalid, and an empty batch a well-formed zero-count response.
func TestSubmitAppendBatchCorrupt(t *testing.T) {
	s := testServer(t)
	if resp := submitAppend(t, s, Request{Op: OpBatch, Payload: []byte{1, 2, 3}}); resp.Status != StatusInvalid {
		t.Fatalf("corrupt batch answered %v", resp.Status)
	}
	empty := submitAppend(t, s, Request{Op: OpBatch, Payload: MarshalBatchRequests(nil, nil)})
	if empty.Status != StatusOK {
		t.Fatalf("empty batch answered %v", empty.Status)
	}
	if subs, err := DecodeBatchResponses(empty.Payload, nil); err != nil || len(subs) != 0 {
		t.Fatalf("empty batch decoded to %d subs, err %v", len(subs), err)
	}
}

// TestUnmarshalViews: the alias-not-copy decoders agree with their copying
// twins and actually alias the input buffer.
func TestUnmarshalViews(t *testing.T) {
	req := Request{Op: OpWrite, Addr: core.Addr{Lo: 3, Hi: 5}, Size: 9, Payload: []byte("payload")}
	buf := req.Marshal()
	view, err := UnmarshalRequestView(buf)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := UnmarshalRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if view.Op != copied.Op || view.Addr != copied.Addr || view.Size != copied.Size ||
		!bytes.Equal(view.Payload, copied.Payload) {
		t.Fatalf("view %+v vs copy %+v", view, copied)
	}
	buf[len(buf)-1] ^= 0xFF
	if bytes.Equal(view.Payload, copied.Payload) {
		t.Fatal("request view did not alias the buffer")
	}

	resp := Response{Status: StatusOK, Addr: core.Addr{Lo: 1}, Payload: []byte("resp")}
	rbuf := resp.Marshal()
	rview, err := UnmarshalResponseView(rbuf)
	if err != nil {
		t.Fatal(err)
	}
	rcopy, err := UnmarshalResponse(rbuf)
	if err != nil {
		t.Fatal(err)
	}
	if rview.Status != rcopy.Status || !bytes.Equal(rview.Payload, rcopy.Payload) {
		t.Fatalf("view %+v vs copy %+v", rview, rcopy)
	}
	rbuf[len(rbuf)-1] ^= 0xFF
	if bytes.Equal(rview.Payload, rcopy.Payload) {
		t.Fatal("response view did not alias the buffer")
	}

	// Error cases: short frames and length-field lies.
	if _, err := UnmarshalRequestView([]byte{1, 2}); err == nil {
		t.Fatal("short request view decoded")
	}
	bad := req.Marshal()
	bad[21] ^= 0xFF
	if _, err := UnmarshalRequestView(bad); err == nil {
		t.Fatal("length-lying request view decoded")
	}
	if _, err := UnmarshalResponseView([]byte{1}); err == nil {
		t.Fatal("short response view decoded")
	}
	rbad := resp.Marshal()
	rbad[17] ^= 0xFF
	if _, err := UnmarshalResponseView(rbad); err == nil {
		t.Fatal("length-lying response view decoded")
	}
}

// TestOpCodeString: every opcode names itself; unknown codes print their
// numeric value.
func TestOpCodeString(t *testing.T) {
	want := map[OpCode]string{
		OpAlloc: "alloc", OpFree: "free", OpRead: "read", OpWrite: "write",
		OpRelease: "release", OpInfo: "info", OpBatch: "batch",
	}
	for op, s := range want {
		if op.String() != s {
			t.Fatalf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if got := OpCode(99).String(); got != "op(99)" {
		t.Fatalf("unknown opcode printed %q", got)
	}
}

// TestSubResponsePool: the pooled sub-response slices come back empty and
// survive a put/get cycle without carrying stale elements.
func TestSubResponsePool(t *testing.T) {
	s := GetSubResponses()
	if len(s) != 0 {
		t.Fatalf("pooled sub-responses arrive with %d elements", len(s))
	}
	s = append(s, Response{Status: StatusOK, Payload: []byte("x")})
	PutSubResponses(s)
	again := GetSubResponses()
	if len(again) != 0 {
		t.Fatalf("recycled sub-responses arrive with %d elements", len(again))
	}
	PutSubResponses(again)
}

// TestServerStoreAccessor: the store handed to NewServer is the one
// exposed.
func TestServerStoreAccessor(t *testing.T) {
	s := testServer(t)
	if s.Store() == nil {
		t.Fatal("Store() returned nil")
	}
	if s.Store().Workers() < 1 {
		t.Fatal("store reports no workers")
	}
}
