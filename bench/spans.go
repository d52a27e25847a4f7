package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"corm/internal/rpc"
	"corm/internal/transport"
)

// Tracing lives entirely in the benchmark: a workload op is a root span,
// and every call that crosses a client.Backend while it runs is a child
// with the root's id. The traced run uses one client goroutine, so the
// open root is a single atomic and children nest by time containment. A
// call the program issues in the background (the third replica write of a
// W=2 put) is attributed to whichever root is open when it starts, and is
// clipped to that root when it outlives it.

const (
	spanRoot = iota
	spanCall
	spanDirectRead
)

type span struct {
	id         uint64 // root id shared by a root and its children; 0 = no root open
	start, end time.Duration
	layer      uint8 // spanRoot, spanCall or spanDirectRead
	kind       uint8 // root: op kind; spanCall: rpc opcode
	node       int8
}

const spanChunk = 1 << 16

type tracer struct {
	enabled atomic.Bool
	cur     atomic.Uint64 // id of the open root
	next    uint64        // owned by the single client goroutine
	base    time.Time

	mu     sync.Mutex
	chunks [][]span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) on() bool { return t.enabled.Load() }

func (t *tracer) now() time.Duration { return time.Since(t.base) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	n := len(t.chunks) - 1
	t.chunks[n] = append(t.chunks[n], s)
	t.mu.Unlock()
}

// begin opens a root span; end closes it.
func (t *tracer) begin() uint64 {
	t.next++
	t.cur.Store(t.next)
	return t.next
}

func (t *tracer) end(id uint64, kind int, start, end time.Duration) {
	t.cur.Store(0)
	t.add(span{id: id, start: start, end: end, layer: spanRoot, kind: uint8(kind), node: -1})
}

func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// shim wraps the transport.Conn a client.Ctx is built on. It forwards every
// facet the client probes for, so a traced client takes the same lease
// paths as an untraced one.
type shim struct {
	conn *transport.Conn
	tr   *tracer
	node int8
}

func (s *shim) record(layer, kind uint8, id uint64, start time.Duration) {
	s.tr.add(span{id: id, start: start, end: s.tr.now(), layer: layer, kind: kind, node: s.node})
}

func (s *shim) Call(req rpc.Request) (rpc.Response, error) {
	if !s.tr.on() {
		return s.conn.Call(req)
	}
	id, start := s.tr.cur.Load(), s.tr.now()
	resp, err := s.conn.Call(req)
	s.record(spanCall, uint8(req.Op), id, start)
	return resp, err
}

func (s *shim) CallLease(req rpc.Request) (rpc.Response, *transport.Lease, error) {
	if !s.tr.on() {
		return s.conn.CallLease(req)
	}
	id, start := s.tr.cur.Load(), s.tr.now()
	resp, lease, err := s.conn.CallLease(req)
	s.record(spanCall, uint8(req.Op), id, start)
	return resp, lease, err
}

func (s *shim) DirectRead(rkey uint32, vaddr uint64, buf []byte) error {
	if !s.tr.on() {
		return s.conn.DirectRead(rkey, vaddr, buf)
	}
	id, start := s.tr.cur.Load(), s.tr.now()
	err := s.conn.DirectRead(rkey, vaddr, buf)
	s.record(spanDirectRead, 0, id, start)
	return err
}

func (s *shim) DirectReadLease(rkey uint32, vaddr uint64, n int) (*transport.Lease, []byte, error) {
	if !s.tr.on() {
		return s.conn.DirectReadLease(rkey, vaddr, n)
	}
	id, start := s.tr.cur.Load(), s.tr.now()
	lease, view, err := s.conn.DirectReadLease(rkey, vaddr, n)
	s.record(spanDirectRead, 0, id, start)
	return lease, view, err
}

func (s *shim) ReconnectDMA() error { return s.conn.ReconnectDMA() }
func (s *shim) Close() error        { return s.conn.Close() }

// rootStats is what the spans of one root kind reduce to.
type rootStats struct {
	durNs, selfNs, calls, slowestNs []float64
}

// analyze groups children under their roots. Children are clipped to the
// root's interval; self time is the root's duration minus the union of its
// clipped children, so it cannot be negative.
func analyze(spans []span) (byKind [nKinds]rootStats) {
	roots := make(map[uint64]span)
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.layer == spanRoot {
			roots[s.id] = s
		} else {
			kids[s.id] = append(kids[s.id], s) // id 0: no root was open
		}
	}
	for id, r := range roots {
		cs := kids[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		var covered, slowest time.Duration
		edge := r.start
		calls := 0
		for _, c := range cs {
			c = clip(c, r)
			if c.end <= c.start {
				continue
			}
			calls++
			if d := c.end - c.start; d > slowest {
				slowest = d
			}
			if c.start > edge {
				edge = c.start
			}
			if c.end > edge {
				covered += c.end - edge
				edge = c.end
			}
		}
		st := &byKind[r.kind]
		dur := r.end - r.start
		st.durNs = append(st.durNs, float64(dur))
		st.selfNs = append(st.selfNs, float64(dur-covered))
		st.calls = append(st.calls, float64(calls))
		st.slowestNs = append(st.slowestNs, float64(slowest))
	}
	return byKind
}

// clip bounds a child span by its root.
func clip(c, root span) span {
	if c.start < root.start {
		c.start = root.start
	}
	if c.end > root.end {
		c.end = root.end
	}
	return c
}

// writeSpans dumps spans one per line: workload, root id, layer, name,
// node, start and duration in nanoseconds on the run clock.
func writeSpans(w io.Writer, workloadName string, spans []span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		layer, name := "workload", ""
		switch s.layer {
		case spanRoot:
			name = kindNames[s.kind]
		case spanCall:
			layer, name = "backend", "call:"+rpc.OpCode(s.kind).String()
		case spanDirectRead:
			layer, name = "backend", "direct_read"
		}
		fmt.Fprintf(bw, "%s %d %s %s %d %d %d\n", workloadName, s.id, layer, name, s.node,
			s.start.Nanoseconds(), (s.end - s.start).Nanoseconds())
	}
	return bw.Flush()
}
