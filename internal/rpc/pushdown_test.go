package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"corm/internal/core"
)

// TestPushdownEncodingRoundtrips: each pushdown payload encoding is
// canonical — marshal, view-unmarshal, re-marshal must be byte-identical,
// and the decoded fields must match.
func TestPushdownEncodingRoundtrips(t *testing.T) {
	cas := CASReq{Token: 0xfeed, Offset: 12, Old: []byte("old"), New: []byte("newer")}
	got, err := UnmarshalCASReqView(cas.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Token != cas.Token || got.Offset != cas.Offset ||
		!bytes.Equal(got.Old, cas.Old) || !bytes.Equal(got.New, cas.New) {
		t.Fatalf("CAS round trip: got %+v want %+v", got, cas)
	}
	if !bytes.Equal(got.Marshal(), cas.Marshal()) {
		t.Fatal("CAS re-marshal differs")
	}

	fa := FAddReq{Token: 7, Offset: 8, Delta: -3}
	gfa, err := UnmarshalFAddReq(fa.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if gfa != fa {
		t.Fatalf("FetchAdd round trip: got %+v want %+v", gfa, fa)
	}

	cw := CondWriteReq{Token: 9, Mode: CondIfVersion, Version: 4, Value: []byte("v")}
	gcw, err := UnmarshalCondWriteReqView(cw.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if gcw.Token != cw.Token || gcw.Mode != cw.Mode || gcw.Version != cw.Version ||
		!bytes.Equal(gcw.Value, cw.Value) {
		t.Fatalf("CondWrite round trip: got %+v want %+v", gcw, cw)
	}

	sc := ScanReq{Class: 2, Pred: PredGtU64, Offset: 16, Limit: 5, Arg: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	gsc, err := UnmarshalScanReqView(sc.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if gsc.Class != sc.Class || gsc.Pred != sc.Pred || gsc.Offset != sc.Offset ||
		gsc.Limit != sc.Limit || !bytes.Equal(gsc.Arg, sc.Arg) {
		t.Fatalf("Scan round trip: got %+v want %+v", gsc, sc)
	}

	// Truncated and inflated buffers must error, never panic.
	for _, enc := range [][]byte{cas.Marshal(), cw.Marshal(), sc.Marshal()} {
		if _, err := UnmarshalCASReqView(enc[:len(enc)-1]); err == nil {
			if _, err2 := UnmarshalCondWriteReqView(enc[:len(enc)-1]); err2 == nil {
				if _, err3 := UnmarshalScanReqView(enc[:len(enc)-1]); err3 == nil {
					t.Fatal("every decoder accepted a truncated buffer")
				}
			}
		}
	}
	if _, err := UnmarshalFAddReq(make([]byte, faddReqBytes+1)); err == nil {
		t.Fatal("FetchAdd decoder accepted an oversized buffer")
	}
}

func u64le(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// TestEvalPred exercises the predicate table, including the
// never-match-on-overrun rule.
func TestEvalPred(t *testing.T) {
	pay := append(u64le(100), []byte("suffix")...)
	cases := []struct {
		name string
		pred uint8
		off  int
		arg  []byte
		want bool
	}{
		{"eq match", PredEq, 8, []byte("suffix"), true},
		{"eq mismatch", PredEq, 8, []byte("suffiy"), false},
		{"ne", PredNe, 8, []byte("suffiy"), true},
		{"lt true", PredLtU64, 0, u64le(101), true},
		{"lt false", PredLtU64, 0, u64le(100), false},
		{"gt true", PredGtU64, 0, u64le(99), true},
		{"gt false", PredGtU64, 0, u64le(100), false},
		{"overrun never matches", PredEq, 12, []byte("suffix"), false},
		{"negative offset", PredEq, -1, []byte("s"), false},
		{"numeric overrun", PredGtU64, 10, u64le(0), false},
		{"numeric short arg", PredGtU64, 0, []byte{1}, false},
		{"unknown pred", 99, 0, []byte{1}, false},
	}
	for _, c := range cases {
		if got := EvalPred(c.pred, c.off, c.arg, pay); got != c.want {
			t.Errorf("%s: EvalPred=%v want %v", c.name, got, c.want)
		}
	}
}

// pushdownObject allocates one written object on the test server.
func pushdownObject(t *testing.T, s *Server, size int, payload []byte) core.Addr {
	t.Helper()
	resp := s.Submit(Request{Op: OpAlloc, Size: uint32(size)})
	if resp.Status != StatusOK {
		t.Fatalf("alloc: %v", resp.Status)
	}
	addr := resp.Addr
	if resp := s.Submit(Request{Op: OpWrite, Addr: addr, Payload: payload}); resp.Status != StatusOK {
		t.Fatalf("write: %v", resp.Status)
	}
	return addr
}

// TestSubmitPushdownOps drives the five opcodes through the Submit path
// end to end against a live store.
func TestSubmitPushdownOps(t *testing.T) {
	s := testServer(t)
	addr := pushdownObject(t, s, 16, make([]byte, 16))

	// FetchAdd: two adds observe 0 then 5.
	fa := FAddReq{Token: 1, Offset: 0, Delta: 5}
	resp := s.Submit(Request{Op: OpFetchAdd, Addr: addr, Payload: fa.Marshal()})
	if resp.Status != StatusOK || binary.LittleEndian.Uint64(resp.Payload) != 0 {
		t.Fatalf("first fetchadd: %v %x", resp.Status, resp.Payload)
	}
	fa.Token = 2
	resp = s.Submit(Request{Op: OpFetchAdd, Addr: addr, Payload: fa.Marshal()})
	if resp.Status != StatusOK || binary.LittleEndian.Uint64(resp.Payload) != 5 {
		t.Fatalf("second fetchadd: %v %x", resp.Status, resp.Payload)
	}

	// CAS: success then conflict.
	cas := CASReq{Token: 3, Offset: 0, Old: u64le(10), New: u64le(42)}
	if resp = s.Submit(Request{Op: OpCAS, Addr: addr, Payload: cas.Marshal()}); resp.Status != StatusOK {
		t.Fatalf("cas: %v", resp.Status)
	}
	cas.Token = 4
	resp = s.Submit(Request{Op: OpCAS, Addr: addr, Payload: cas.Marshal()})
	if resp.Status != StatusConflict || len(resp.Payload) != 0 {
		t.Fatalf("cas conflict: %v %x", resp.Status, resp.Payload)
	}
	if !errors.Is(resp.Status.Err(), core.ErrConflict) {
		t.Fatalf("conflict maps to %v", resp.Status.Err())
	}

	// CondWrite if-version: the store version moved with every mutation
	// above; read it back via a conflict probe, then succeed with it.
	cw := CondWriteReq{Token: 5, Mode: CondIfVersion, Version: 0xffff, Value: u64le(1)}
	resp = s.Submit(Request{Op: OpCondWrite, Addr: addr, Payload: cw.Marshal()})
	if resp.Status != StatusConflict || len(resp.Payload) != 4 {
		t.Fatalf("condwrite probe: %v %x", resp.Status, resp.Payload)
	}
	observed := binary.LittleEndian.Uint32(resp.Payload)
	cw = CondWriteReq{Token: 6, Mode: CondIfVersion, Version: observed, Value: u64le(77)}
	resp = s.Submit(Request{Op: OpCondWrite, Addr: addr, Payload: cw.Marshal()})
	if resp.Status != StatusOK || binary.LittleEndian.Uint32(resp.Payload) != observed+1 {
		t.Fatalf("condwrite: %v %x", resp.Status, resp.Payload)
	}

	// CondWrite if-absent on a fresh object, twice.
	fresh := s.Submit(Request{Op: OpAlloc, Size: 16})
	if fresh.Status != StatusOK {
		t.Fatalf("alloc: %v", fresh.Status)
	}
	cw = CondWriteReq{Token: 7, Mode: CondIfAbsent, Value: u64le(1)}
	if resp = s.Submit(Request{Op: OpCondWrite, Addr: fresh.Addr, Payload: cw.Marshal()}); resp.Status != StatusOK {
		t.Fatalf("if-absent first: %v", resp.Status)
	}
	cw.Token = 8
	if resp = s.Submit(Request{Op: OpCondWrite, Addr: fresh.Addr, Payload: cw.Marshal()}); resp.Status != StatusConflict {
		t.Fatalf("if-absent second: %v", resp.Status)
	}

	// Scan: exactly the two objects of this class exist; one matches.
	sc := ScanReq{Class: addr.Class(), Pred: PredEq, Offset: 0, Arg: u64le(77)}
	resp = s.Submit(Request{Op: OpScan, Payload: sc.Marshal()})
	if resp.Status != StatusOK {
		t.Fatalf("scan: %v", resp.Status)
	}
	subs, err := DecodeBatchResponses(resp.Payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || binary.LittleEndian.Uint64(subs[0].Payload) != 77 {
		t.Fatalf("scan matches: %d", len(subs))
	}
	if subs[0].Addr.VAddr() != addr.VAddr() {
		t.Fatalf("scan returned pointer %v, want %v", subs[0].Addr, addr)
	}

	// A multi-key RMW is an OpBatch of pushdown records: a fetch-add and a
	// read in one frame, executed in order.
	body := AppendBatchHeader(nil, 2)
	faSub := FAddReq{Token: 9, Offset: 8, Delta: 1}
	sub := Request{Op: OpFetchAdd, Addr: addr, Payload: faSub.Marshal()}
	body = AppendSubRequest(body, &sub)
	sub = Request{Op: OpRead, Addr: addr, Size: 16}
	body = AppendSubRequest(body, &sub)
	resp = s.Submit(Request{Op: OpBatch, Payload: body})
	if resp.Status != StatusOK {
		t.Fatalf("rmw batch: %v", resp.Status)
	}
	subs, err = DecodeBatchResponses(resp.Payload, nil)
	if err != nil || len(subs) != 2 {
		t.Fatalf("rmw batch decode: %v %d", err, len(subs))
	}
	if subs[0].Status != StatusOK {
		t.Fatalf("rmw fetchadd: %v", subs[0].Status)
	}
	if subs[1].Status != StatusOK || len(subs[1].Payload) != 16 {
		t.Fatalf("read after fetchadd in one batch: %v, %d bytes", subs[1].Status, len(subs[1].Payload))
	}
}

// TestPushdownDedupReplay: re-submitting the same token replays the
// recorded outcome without re-applying the mutation — the property that
// makes pushdown mutations safe to retry across reconnects.
func TestPushdownDedupReplay(t *testing.T) {
	s := testServer(t)
	addr := pushdownObject(t, s, 16, make([]byte, 16))

	fa := FAddReq{Token: 0xabc, Offset: 0, Delta: 7}
	first := s.Submit(Request{Op: OpFetchAdd, Addr: addr, Payload: fa.Marshal()})
	if first.Status != StatusOK {
		t.Fatalf("fetchadd: %v", first.Status)
	}
	replay := s.Submit(Request{Op: OpFetchAdd, Addr: addr, Payload: fa.Marshal()})
	if replay.Status != StatusOK || !bytes.Equal(replay.Payload, first.Payload) {
		t.Fatalf("replay: %v %x want %x", replay.Status, replay.Payload, first.Payload)
	}
	// The replay must not have applied the delta again.
	fa = FAddReq{Token: 0xdef, Offset: 0, Delta: 0}
	probe := s.Submit(Request{Op: OpFetchAdd, Addr: addr, Payload: fa.Marshal()})
	if v := binary.LittleEndian.Uint64(probe.Payload); v != 7 {
		t.Fatalf("counter is %d after replay, want 7", v)
	}

	// Conflict outcomes replay too.
	cas := CASReq{Token: 0x111, Offset: 0, Old: u64le(999), New: u64le(1)}
	c1 := s.Submit(Request{Op: OpCAS, Addr: addr, Payload: cas.Marshal()})
	c2 := s.Submit(Request{Op: OpCAS, Addr: addr, Payload: cas.Marshal()})
	if c1.Status != StatusConflict || c2.Status != StatusConflict {
		t.Fatalf("conflict replay: %v %v", c1.Status, c2.Status)
	}

	// Token 0 opts out of dedup: both submissions apply.
	fa = FAddReq{Token: 0, Offset: 0, Delta: 1}
	s.Submit(Request{Op: OpFetchAdd, Addr: addr, Payload: fa.Marshal()})
	s.Submit(Request{Op: OpFetchAdd, Addr: addr, Payload: fa.Marshal()})
	fa = FAddReq{Token: 0x222, Offset: 0, Delta: 0}
	probe = s.Submit(Request{Op: OpFetchAdd, Addr: addr, Payload: fa.Marshal()})
	if v := binary.LittleEndian.Uint64(probe.Payload); v != 9 {
		t.Fatalf("counter is %d after tokenless adds, want 9", v)
	}
}

// TestPushdownInvalidInputs: malformed payloads and bad parameters surface
// as StatusInvalid, never panics or corruption.
func TestPushdownInvalidInputs(t *testing.T) {
	s := testServer(t)
	addr := pushdownObject(t, s, 16, make([]byte, 16))

	for _, req := range []Request{
		{Op: OpCAS, Addr: addr, Payload: []byte{1, 2, 3}},
		{Op: OpFetchAdd, Addr: addr, Payload: make([]byte, faddReqBytes-1)},
		{Op: OpCondWrite, Addr: addr, Payload: []byte{0}},
		{Op: OpScan, Payload: []byte{9}},
	} {
		if resp := s.Submit(req); resp.Status != StatusInvalid {
			t.Errorf("op %v with garbage payload: %v, want StatusInvalid", req.Op, resp.Status)
		}
	}

	// Out-of-range offset is a short-buffer error carried as StatusInvalid.
	fa := FAddReq{Token: 1, Offset: 1 << 20, Delta: 1}
	if resp := s.Submit(Request{Op: OpFetchAdd, Addr: addr, Payload: fa.Marshal()}); resp.Status != StatusInvalid {
		t.Errorf("oob fetchadd: %v", resp.Status)
	}
	// Unknown CondWrite mode.
	cw := CondWriteReq{Token: 2, Mode: 99, Value: []byte{1}}
	if resp := s.Submit(Request{Op: OpCondWrite, Addr: addr, Payload: cw.Marshal()}); resp.Status != StatusInvalid {
		t.Errorf("bad condwrite mode: %v", resp.Status)
	}
	// Unknown predicate.
	sc := ScanReq{Class: addr.Class(), Pred: 99}
	if resp := s.Submit(Request{Op: OpScan, Payload: sc.Marshal()}); resp.Status != StatusInvalid {
		t.Errorf("bad pred: %v", resp.Status)
	}
	// Scan of a class that does not exist.
	sc = ScanReq{Class: 250, Pred: PredEq, Arg: []byte{1}}
	if resp := s.Submit(Request{Op: OpScan, Payload: sc.Marshal()}); resp.Status == StatusOK {
		t.Errorf("scan of bogus class: %v", resp.Status)
	}
}

// TestScanLimitTruncation: Limit bounds the match count.
func TestScanLimitTruncation(t *testing.T) {
	s := testServer(t)
	var addr core.Addr
	for i := 0; i < 10; i++ {
		addr = pushdownObject(t, s, 16, u64le(5))
	}
	sc := ScanReq{Class: addr.Class(), Pred: PredEq, Offset: 0, Limit: 3, Arg: u64le(5)}
	resp := s.Submit(Request{Op: OpScan, Payload: sc.Marshal()})
	if resp.Status != StatusOK {
		t.Fatalf("scan: %v", resp.Status)
	}
	subs, err := DecodeBatchResponses(resp.Payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 {
		t.Fatalf("limit=3 scan returned %d matches", len(subs))
	}
}

// TestMultiRMWSharded drives a multi-key RMW batch large enough that the
// server fans it out across idle worker tokens. The chunk split must preserve
// sub-response order and per-op atomicity; GOMAXPROCS is raised because
// the server refuses to shard when the scheduler has no spare parallelism.
func TestMultiRMWSharded(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	s := testServer(t)
	const n = 64
	addrs := make([]core.Addr, n)
	for i := range addrs {
		addrs[i] = pushdownObject(t, s, 16, make([]byte, 16))
	}

	body := AppendBatchHeader(nil, n)
	for i := range addrs {
		fa := FAddReq{Token: uint64(1000 + i), Offset: 0, Delta: int64(i + 1)}
		sub := Request{Op: OpFetchAdd, Addr: addrs[i], Payload: fa.Marshal()}
		body = AppendSubRequest(body, &sub)
	}
	resp := s.Submit(Request{Op: OpBatch, Payload: body})
	if resp.Status != StatusOK {
		t.Fatalf("multi-rmw: %v", resp.Status)
	}
	subs, err := DecodeBatchResponses(resp.Payload, nil)
	if err != nil || len(subs) != n {
		t.Fatalf("decode: %d subs, %v", len(subs), err)
	}
	for i, sub := range subs {
		if sub.Status != StatusOK {
			t.Fatalf("sub %d: %v", i, sub.Status)
		}
		if got := binary.LittleEndian.Uint64(sub.Payload); got != 0 {
			t.Fatalf("sub %d pre-add = %d, want 0", i, got)
		}
	}
	// Second pass proves each delta landed on its own object.
	for i := range addrs {
		fa := FAddReq{Token: uint64(2000 + i), Offset: 0, Delta: 0}
		resp := s.Submit(Request{Op: OpFetchAdd, Addr: addrs[i], Payload: fa.Marshal()})
		if resp.Status != StatusOK {
			t.Fatalf("readback %d: %v", i, resp.Status)
		}
		if got := binary.LittleEndian.Uint64(resp.Payload); got != uint64(i+1) {
			t.Fatalf("counter %d = %d, want %d", i, got, i+1)
		}
	}
}
