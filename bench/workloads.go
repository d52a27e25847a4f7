package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	corm "corm"
	"corm/internal/client"
	"corm/internal/cluster"
	"corm/internal/core"
	"corm/internal/transport"
)

// instance is one set-up workload: the nodes, the clients and the state the
// stamp check needs. do executes goroutine g's next generated op.
type instance interface {
	do(g int) result
	// audit reads every live value back after the run and checks it against
	// the last acknowledged write.
	audit() (checked, bad int)
	stores() []*core.Store
	liveBytes() int64 // payload bytes the clients hold live
	close()
}

// workload ties a name to its generator and set-up.
type workloadDef struct {
	name  string
	why   string
	gen   func(seed int64) []stream
	setup func(ss []stream, tr *tracer, traced bool) (instance, error)
	// The op kinds behind the read, write, direct-read and hot-read
	// end-to-end metrics. A workload with no distinct op of its own for
	// one repeats its read kind there, so every metric exists on every
	// workload.
	read, write, direct, hot int
	// unsteadyTail marks the two workloads that keep more goroutines busy
	// than the host has cores. Their p99s spread by 20-40 % from run to run,
	// more than the largest bound a metric may have, so their end-to-end
	// p99 and p99.9 cells repeat the op's p50 and the real p99s are per-layer
	// metrics (bench.read_p99_us, bench.write_p99_us).
	unsteadyTail bool
	// procs, when not 0, is the GOMAXPROCS the workload runs under (see
	// setProcs).
	procs int
}

var workloads = []workloadDef{
	{"rpc_point", "one op outstanding over TCP, so p50 is a round trip: transport and rpc do the work (paper Figs 9-10)",
		genPoint, setupPoint, kRead, kWrite, kDirectRead, kRead, false, 1},
	{"batch_pipeline", "same layers driven the opposite way: 64-wide Multi* frames and the three async batchers from two goroutines",
		genBatch, setupPoint, kMultiRead, kMultiWrite, kMultiRead, kMultiRead, true, 0},
	{"kv_replicated", "3 nodes, k=3 W=2 replicated KV under Zipf 0.99, Get 80 / Put 20: the cluster layer does most of the work",
		genKV, setupKV, kGet, kPut, kGet, kHotRead, false, 0},
	{"churn_compact", "alloc/free churn with the background compactor on while a reader uses old pointers (paper Figs 15-17); no wire",
		genChurn, setupChurn, kRead, kWrite, kRead, kRead, true, 0},
	{"tiered_zipf", "working set twice the memory budget with a compressed tier under Zipf 0.99: the only workload larger than memory",
		genTiered, setupTiered, kRead, kWrite, kRead, kHotRead, false, 0},
}

// setProcs puts the process on the workload's GOMAXPROCS and returns the
// call that puts it back. rpc_point has one op outstanding, so nothing in
// it runs in parallel, and it gets one P. With two, every hop of the round
// trip wakes a thread, and the kernel either keeps client and server on one
// CPU (p50 ~12 us, p99 ~45 us) or puts them on both (p50 ~19 us, p99 ~80 us,
// half as much CPU again per op); a run stays in one of the two for tens of
// seconds and flips for no reason the program has a part in, so with two Ps
// the workload measures the kernel's choice and not the program. On one P
// there is no thread to wake.
func (w workloadDef) setProcs() (restore func()) {
	if w.procs == 0 {
		return func() {}
	}
	old := runtime.GOMAXPROCS(w.procs)
	return func() { runtime.GOMAXPROCS(old) }
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// nodeConfig is the store configuration of every node: the library's
// defaults (the paper's main set-up) with a fixed seed.
func nodeConfig() corm.Config {
	cfg := corm.DefaultConfig()
	cfg.Seed = 1
	return cfg
}

// startNode starts a node listening on TCP loopback.
func startNode(opts ...corm.ServerOption) (*corm.Server, string, error) {
	srv, err := corm.NewServer(nodeConfig(), opts...)
	if err != nil {
		return nil, "", err
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	return srv, addr, nil
}

// dialTCP connects a client context over forced TCP loopback: the only
// wire a multi-machine deployment has. Traced clients sit on the shim.
func dialTCP(addr string, tr *tracer, traced bool, node int) (*client.Ctx, error) {
	conn, err := transport.DialOptions(addr, transport.Options{DisableSharedMemory: true})
	if err != nil {
		return nil, err
	}
	if traced {
		return client.New(&shim{conn: conn, tr: tr, node: int8(node)})
	}
	return client.New(conn)
}

// cursor walks a stream cyclically.
type cursor struct {
	st  stream
	pos int
}

func (c *cursor) next() op {
	o := c.st.ops[c.pos]
	if c.pos++; c.pos == len(c.st.ops) {
		c.pos = 0
	}
	return o
}

// retryCompacting runs fn until it stops reporting ErrCompacting: the
// status the paper's protocol tells a client to retry (an object locked by
// a merge in progress). Anything else, or running out of tries, is final.
func retryCompacting(fn func() error) (retries int, err error) {
	for {
		if err = fn(); !errors.Is(err, core.ErrCompacting) || retries >= 100_000 {
			return retries, err
		}
		retries++
		runtime.Gosched()
	}
}

// ---------------------------------------------------------------------------
// rpc_point and batch_pipeline: one node, one Ctx over TCP, 65 536 x 64 B.

type pointInst struct {
	srv   *corm.Server
	ctx   *client.Ctx
	addrs []core.Addr
	seq   []uint32
	ctr   []uint64 // FetchAdd target word per key
	gs    []pointG
}

type pointG struct {
	cur      cursor
	buf      []byte
	wbuf     []byte
	ptrs     []*core.Addr
	bufs     [][]byte
	payloads [][]byte
	futs     []*client.Future
	afuts    []*client.AtomicFuture
}

func setupPoint(ss []stream, tr *tracer, traced bool) (instance, error) {
	srv, addr, err := startNode()
	if err != nil {
		return nil, err
	}
	ctx, err := dialTCP(addr, tr, traced, 0)
	if err != nil {
		srv.Close()
		return nil, err
	}
	p := &pointInst{
		srv: srv, ctx: ctx,
		addrs: make([]core.Addr, pointObjects),
		seq:   make([]uint32, pointObjects),
		ctr:   make([]uint64, pointObjects),
	}
	const chunk = 128
	sizes := make([]int, chunk)
	ptrs := make([]*core.Addr, chunk)
	payloads := make([][]byte, chunk)
	for i := range sizes {
		sizes[i] = pointBytes
		payloads[i] = make([]byte, pointBytes)
	}
	for base := 0; base < pointObjects; base += chunk {
		res, err := ctx.MultiAlloc(sizes)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("populate alloc: %w", err)
		}
		for i := range res {
			if res[i].Err != nil {
				p.close()
				return nil, fmt.Errorf("populate alloc: %w", res[i].Err)
			}
			p.addrs[base+i] = res[i].Addr
			ptrs[i] = &p.addrs[base+i]
			stamp(payloads[i], uint32(base+i), 0, 0)
		}
		wres, err := ctx.MultiWrite(ptrs, payloads)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("populate write: %w", err)
		}
		for i := range wres {
			if wres[i].Err != nil {
				p.close()
				return nil, fmt.Errorf("populate write: %w", wres[i].Err)
			}
		}
	}
	for _, s := range ss {
		g := pointG{cur: cursor{st: s}, buf: make([]byte, pointBytes), wbuf: make([]byte, pointBytes)}
		if len(s.keys) > 0 {
			g.ptrs = make([]*core.Addr, batchWidth)
			g.bufs = make([][]byte, batchWidth)
			g.payloads = make([][]byte, batchWidth)
			g.futs = make([]*client.Future, batchWidth)
			g.afuts = make([]*client.AtomicFuture, batchWidth)
			for i := range g.bufs {
				g.bufs[i] = make([]byte, pointBytes)
				g.payloads[i] = make([]byte, pointBytes)
			}
		}
		p.gs = append(p.gs, g)
	}
	return p, nil
}

func (p *pointInst) do(gi int) result {
	g := &p.gs[gi]
	o := g.cur.next()
	if len(g.cur.st.keys) > 0 {
		return p.doBatch(g, o)
	}
	a := &p.addrs[o.key]
	res := result{kind: int(o.kind), subops: 1}
	var err error
	switch o.kind {
	case kRead:
		var n int
		n, err = p.ctx.Read(a, g.buf)
		if err == nil && !stampOK(g.buf[:n], o.key, p.seq[o.key]) {
			err = errStamp
		}
	case kDirectRead:
		var n int
		n, err = p.ctx.DirectRead(a, g.buf)
		if err == nil && !stampOK(g.buf[:n], o.key, p.seq[o.key]) {
			err = errStamp
		}
	case kWrite:
		p.seq[o.key]++
		stamp(g.wbuf, o.key, p.seq[o.key], p.ctr[o.key])
		err = p.ctx.Write(a, g.wbuf)
	}
	if err != nil {
		res.failed = 1
	}
	return res
}

var errStamp = errors.New("bench: value does not carry the last acknowledged stamp")

func (p *pointInst) doBatch(g *pointG, o op) result {
	keys := g.cur.st.keys[int(o.key)*batchWidth : (int(o.key)+1)*batchWidth]
	res := result{kind: int(o.kind), subops: batchWidth}
	for i, k := range keys {
		g.ptrs[i] = &p.addrs[k]
	}
	switch o.kind {
	case kMultiRead:
		rs, err := p.ctx.MultiRead(g.ptrs, g.bufs)
		if err != nil {
			res.failed = batchWidth
			return res
		}
		for i, k := range keys {
			if rs[i].Err != nil || !stampOK(g.bufs[i][:rs[i].N], k, p.seq[k]) {
				res.failed++
			}
		}
	case kReadAsync:
		for i := range keys {
			g.futs[i] = p.ctx.ReadAsync(g.ptrs[i], g.bufs[i])
		}
		p.ctx.Flush()
		for i, k := range keys {
			n, err := g.futs[i].Wait()
			if err != nil || !stampOK(g.bufs[i][:n], k, p.seq[k]) {
				res.failed++
			}
		}
	case kFetchAddAsync:
		for i := range keys {
			g.afuts[i] = p.ctx.FetchAddAsync(g.ptrs[i], ctrOffset, 1)
		}
		p.ctx.Flush()
		for i, k := range keys {
			old, err := g.afuts[i].Wait()
			if err != nil || old != p.ctr[k] {
				res.failed++
			}
			p.ctr[k]++
		}
	case kMultiWrite:
		for i, k := range keys {
			p.seq[k]++
			stamp(g.payloads[i], k, p.seq[k], p.ctr[k])
		}
		rs, err := p.ctx.MultiWrite(g.ptrs, g.payloads)
		if err != nil {
			res.failed = batchWidth
			return res
		}
		for i := range rs {
			if rs[i].Err != nil {
				res.failed++
			}
		}
	}
	return res
}

func (p *pointInst) audit() (checked, bad int) {
	ptrs := make([]*core.Addr, batchWidth)
	bufs := make([][]byte, batchWidth)
	for i := range bufs {
		bufs[i] = make([]byte, pointBytes)
	}
	for base := 0; base < pointObjects; base += batchWidth {
		for i := range ptrs {
			ptrs[i] = &p.addrs[base+i]
		}
		rs, err := p.ctx.MultiRead(ptrs, bufs)
		for i := range ptrs {
			checked++
			k := uint32(base + i)
			if err != nil || rs[i].Err != nil || !stampOK(bufs[i][:rs[i].N], k, p.seq[k]) {
				bad++
			}
		}
	}
	return checked, bad
}

func (p *pointInst) stores() []*core.Store { return []*core.Store{p.srv.Store()} }
func (p *pointInst) liveBytes() int64      { return pointObjects * pointBytes }
func (p *pointInst) close() {
	p.ctx.Close()
	p.srv.Close()
}

// ---------------------------------------------------------------------------
// kv_replicated: three nodes, one pool, a k=3 / W=2 replicated KV.

type kvInst struct {
	srvs  []*corm.Server
	pool  *cluster.Pool
	kv    *cluster.KV
	names []string
	seq   []uint32
	gs    []kvG
}

type kvG struct {
	cur  cursor
	wbuf []byte
}

func setupKV(ss []stream, tr *tracer, traced bool) (instance, error) {
	k := &kvInst{names: make([]string, kvKeys), seq: make([]uint32, kvKeys)}
	var ctxs []*client.Ctx
	fail := func(err error) (instance, error) {
		for _, c := range ctxs {
			c.Close()
		}
		for _, s := range k.srvs {
			s.Close()
		}
		return nil, err
	}
	for n := 0; n < 3; n++ {
		srv, addr, err := startNode()
		if err != nil {
			return fail(err)
		}
		k.srvs = append(k.srvs, srv)
		ctx, err := dialTCP(addr, tr, traced, n)
		if err != nil {
			return fail(err)
		}
		ctxs = append(ctxs, ctx)
	}
	k.pool = cluster.NewFromClients(ctxs)
	k.kv = cluster.NewReplicatedKV(k.pool, cluster.ReplicationConfig{Replicas: 3, WriteConcern: 2})
	const chunk = 256
	vals := make([][]byte, chunk)
	for i := range vals {
		vals[i] = make([]byte, kvBytes)
	}
	for base := 0; base < kvKeys; base += chunk {
		n := min(chunk, kvKeys-base)
		for i := 0; i < n; i++ {
			k.names[base+i] = fmt.Sprintf("key%07d", base+i)
			stamp(vals[i], uint32(base+i), 0, 0)
		}
		errs, err := k.kv.MultiPut(k.names[base:base+n], vals[:n])
		if err != nil {
			k.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		for _, e := range errs {
			if e != nil {
				k.close()
				return nil, fmt.Errorf("preload: %w", e)
			}
		}
	}
	for _, s := range ss {
		k.gs = append(k.gs, kvG{cur: cursor{st: s}, wbuf: make([]byte, kvBytes)})
	}
	return k, nil
}

func (k *kvInst) do(gi int) result {
	g := &k.gs[gi]
	o := g.cur.next()
	res := result{kind: int(o.kind), subops: 1, hot: o.hot}
	switch o.kind {
	case kGet:
		val, found, err := k.kv.Get(k.names[o.key])
		if err != nil || !found || !stampOK(val, o.key, k.seq[o.key]) {
			res.failed = 1
		}
	case kPut:
		k.seq[o.key]++
		stamp(g.wbuf, o.key, k.seq[o.key], 0)
		if err := k.kv.Put(k.names[o.key], g.wbuf); err != nil {
			res.failed = 1
		}
	}
	return res
}

func (k *kvInst) audit() (checked, bad int) {
	const chunk = 256
	for base := 0; base < kvKeys; base += chunk {
		n := min(chunk, kvKeys-base)
		vals, found, err := k.kv.MultiGet(k.names[base : base+n])
		for i := 0; i < n; i++ {
			checked++
			key := uint32(base + i)
			if err != nil || !found[i] || !stampOK(vals[i], key, k.seq[key]) {
				bad++
			}
		}
	}
	return checked, bad
}

func (k *kvInst) stores() []*core.Store {
	var out []*core.Store
	for _, s := range k.srvs {
		out = append(out, s.Store())
	}
	return out
}

func (k *kvInst) liveBytes() int64 { return kvKeys * kvBytes * 3 }

func (k *kvInst) close() {
	if k.pool != nil {
		k.pool.Close()
	}
	for _, s := range k.srvs {
		s.Close()
	}
}

// ---------------------------------------------------------------------------
// churn_compact: one node with the background compactor, in-process
// clients (no transport). Goroutine 0 churns, goroutine 1 reads.

// Compactor settings of churn_compact: fixed, and part of the benchmark's
// definition.
const (
	churnCompactInterval  = 5 * time.Millisecond
	churnCompactMaxBlocks = 256
)

// compactTally wraps the default threshold policy to add up what the
// compactor's reports say was copied and freed; no counter exports the
// bytes.
type compactTally struct {
	core.ThresholdPolicy
	strideOf           func(class int) int
	copiedB, freedByte atomic.Int64
}

func (t *compactTally) Observe(reports []core.CompactReport) {
	for _, r := range reports {
		t.copiedB.Add(int64(r.ObjectsCopied) * int64(t.strideOf(r.Class)))
		t.freedByte.Add(r.FreedBytes)
	}
}

type churnObj struct {
	addr core.Addr
	id   uint32
	size uint32
}

type churnInst struct {
	srv   *corm.Server
	tally *compactTally
	ctxs  [2]*client.Ctx
	live  atomic.Int64

	// churner (goroutine 0)
	picks   []uint8
	pickPos int
	ring    [][]churnObj // cohorts by step modulo len(ring); survivors once thinned
	step    int
	phase   int // 0 alloc, 1 thin the young cohort, 2 retire the old one
	idx     int // position inside the phase
	nextID  uint32
	wbuf    []byte
	rbuf    []byte
	thin    []churnObj // scratch: survivors of the cohort being thinned

	// reader (goroutine 1)
	cur     cursor
	readers []churnObj // the pointers the reader was first given, never updated
	readBuf []byte
}

// churnSize is the object size of the cohort allocated at a step.
func churnSize(step int) uint32 {
	if step/churnEpoch%2 == 0 {
		return churnSmall
	}
	return churnLarge
}

func setupChurn(ss []stream, tr *tracer, traced bool) (instance, error) {
	c := &churnInst{
		picks:   ss[0].picks,
		cur:     cursor{st: ss[1]},
		ring:    make([][]churnObj, churnYoung+churnOld+1),
		nextID:  churnReaderSet,
		wbuf:    make([]byte, churnLarge),
		rbuf:    make([]byte, churnLarge),
		readBuf: make([]byte, churnLarge),
	}
	c.tally = &compactTally{ThresholdPolicy: core.ThresholdPolicy{MaxBlocks: churnCompactMaxBlocks}}
	srv, err := corm.NewServer(nodeConfig(), corm.WithBackgroundCompaction(corm.CompactorConfig{
		Interval:  churnCompactInterval,
		MaxBlocks: churnCompactMaxBlocks,
		Policy:    c.tally,
	}))
	if err != nil {
		return nil, err
	}
	c.srv = srv
	c.tally.strideOf = srv.Store().Stride
	for i := range c.ctxs {
		if c.ctxs[i], err = srv.ConnectLocal(); err != nil {
			c.close()
			return nil, err
		}
	}
	// Reach the steady state by running the churn itself, handing the
	// reader its long-lived objects a few per step so they share blocks
	// with objects that are about to be freed.
	steps := churnYoung + churnOld
	for s := 0; s < steps; s++ {
		for len(c.readers) < churnReaderSet*(s+1)/steps {
			o, err := c.allocObj(uint32(len(c.readers)), churnSize(s))
			if err != nil {
				c.close()
				return nil, fmt.Errorf("reader set: %w", err)
			}
			c.readers = append(c.readers, o)
		}
		for at := c.step; c.step == at; {
			if r := c.churn(); r.failed > 0 {
				c.close()
				return nil, fmt.Errorf("churn step %d failed during set-up", s)
			}
		}
	}
	return c, nil
}

// allocObj allocates one object and writes its stamp (sequence 0: churn
// objects are written once).
func (c *churnInst) allocObj(id, size uint32) (churnObj, error) {
	ctx := c.ctxs[0]
	a, err := ctx.Alloc(int(size))
	if err != nil {
		return churnObj{}, err
	}
	o := churnObj{addr: a, id: id, size: size}
	stamp(c.wbuf[:size], id, 0, 0)
	if _, err := retryCompacting(func() error { return ctx.Write(&o.addr, c.wbuf[:size]) }); err != nil {
		return churnObj{}, err
	}
	c.live.Add(int64(size))
	return o, nil
}

// freeObj frees an object and zeroes its pointer, which is how audit tells
// the freed part of a half-processed cohort from the live part.
func (c *churnInst) freeObj(o *churnObj) (int, error) {
	n, err := retryCompacting(func() error { return c.ctxs[0].Free(&o.addr) })
	if err == nil {
		c.live.Add(-int64(o.size))
		o.addr = core.Addr{}
	}
	return n, err
}

func (c *churnInst) do(g int) result {
	if g == 0 {
		return c.churn()
	}
	o := c.cur.next()
	r := c.readers[o.key]
	a := r.addr // a copy: the reader keeps the pointer it was first given
	var n int
	retries, err := retryCompacting(func() (e error) {
		n, e = c.ctxs[1].Read(&a, c.readBuf[:r.size])
		return e
	})
	res := result{kind: kRead, subops: 1, retry: retries}
	if err != nil || !stampOK(c.readBuf[:n], r.id, 0) {
		res.failed = 1
	}
	return res
}

// churn performs the churner's next object-level action. One step
// allocates a cohort, frees seven of every eight objects of the cohort
// allocated churnYoung steps ago, and retires (checks, then frees) the
// survivors of the cohort thinned churnOld steps before that, so the
// number of live objects stays constant.
func (c *churnInst) churn() result {
	n := len(c.ring)
	for {
		switch c.phase {
		case 0:
			if c.idx == 0 {
				c.ring[c.step%n] = make([]churnObj, 0, churnCohort)
			}
			if c.idx < churnCohort {
				o, err := c.allocObj(c.nextID, churnSize(c.step))
				c.nextID++
				c.idx++
				res := result{kind: kWrite, subops: 1}
				if err != nil {
					res.failed = 1
					return res
				}
				c.ring[c.step%n] = append(c.ring[c.step%n], o)
				return res
			}
			c.phase, c.idx, c.thin = 1, 0, c.thin[:0]
		case 1:
			if c.step < churnYoung {
				c.phase, c.idx = 2, 0
				continue
			}
			slot := (c.step - churnYoung) % n
			cohort := c.ring[slot]
			if c.idx < len(cohort) {
				i := c.idx
				c.idx++
				if i%8 == 0 {
					c.pickPos = (c.pickPos + 1) % len(c.picks)
				}
				if i%8 == int(c.picks[c.pickPos]) {
					c.thin = append(c.thin, cohort[i])
					continue
				}
				retries, err := c.freeObj(&cohort[i])
				res := result{kind: kFree, subops: 1, retry: retries}
				if err != nil {
					res.failed = 1
				}
				return res
			}
			c.ring[slot] = append(cohort[:0], c.thin...)
			c.phase, c.idx = 2, 0
		case 2:
			if c.step < churnYoung+churnOld {
				c.phase, c.idx = 0, 0
				c.step++
				continue
			}
			slot := (c.step - churnYoung - churnOld) % n
			cohort := c.ring[slot]
			if c.idx < len(cohort) {
				o := &cohort[c.idx]
				c.idx++
				var got int
				retries, err := retryCompacting(func() (e error) {
					got, e = c.ctxs[0].Read(&o.addr, c.rbuf[:o.size])
					return e
				})
				res := result{kind: kRetire, subops: 1, retry: retries}
				if err != nil || !stampOK(c.rbuf[:got], o.id, 0) {
					res.failed = 1
				}
				if r2, err := c.freeObj(o); err != nil {
					res.failed = 1
				} else {
					res.retry += r2
				}
				return res
			}
			c.ring[slot] = nil
			c.phase, c.idx = 0, 0
			c.step++
		}
	}
}

func (c *churnInst) audit() (checked, bad int) {
	check := func(o churnObj) {
		checked++
		a := o.addr
		var n int
		_, err := retryCompacting(func() (e error) {
			n, e = c.ctxs[0].Read(&a, c.rbuf[:o.size])
			return e
		})
		if err != nil || !stampOK(c.rbuf[:n], o.id, 0) {
			bad++
		}
	}
	for _, o := range c.readers {
		check(o)
	}
	for _, cohort := range c.ring {
		for _, o := range cohort {
			if !o.addr.IsZero() {
				check(o)
			}
		}
	}
	return checked, bad
}

func (c *churnInst) stores() []*core.Store { return []*core.Store{c.srv.Store()} }
func (c *churnInst) liveBytes() int64      { return c.live.Load() }
func (c *churnInst) close() {
	for _, ctx := range c.ctxs {
		if ctx != nil {
			ctx.Close()
		}
	}
	c.srv.Close()
}

// ---------------------------------------------------------------------------
// tiered_zipf: one node whose memory budget is half the working set, a
// compressed spill tier, in-process clients.

const tierBudget = tierObjects * tierBytes / 2

type tieredInst struct {
	srv   *corm.Server
	ctxs  [2]*client.Ctx
	addrs []core.Addr
	seq   []uint32
	gs    [2]tieredG
}

type tieredG struct {
	cur  cursor
	buf  []byte
	wbuf []byte
}

func setupTiered(ss []stream, tr *tracer, traced bool) (instance, error) {
	srv, err := corm.NewServer(nodeConfig(), corm.WithMemoryBudget(tierBudget), corm.WithTier("compressed"))
	if err != nil {
		return nil, err
	}
	t := &tieredInst{srv: srv, addrs: make([]core.Addr, tierObjects), seq: make([]uint32, tierObjects)}
	for i := range t.ctxs {
		if t.ctxs[i], err = srv.ConnectLocal(); err != nil {
			t.close()
			return nil, err
		}
		t.gs[i] = tieredG{cur: cursor{st: ss[i]}, buf: make([]byte, tierBytes), wbuf: make([]byte, tierBytes)}
	}
	// Populate in rank order from two goroutines, each its own keys, as the
	// run will use them.
	var wg sync.WaitGroup
	errs := make([]error, len(t.ctxs))
	for g := range t.ctxs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, wbuf := t.ctxs[g], t.gs[g].wbuf
			for k := g; k < tierObjects; k += len(t.ctxs) {
				a, err := ctx.Alloc(tierBytes)
				if err == nil {
					t.addrs[k] = a
					stamp(wbuf, uint32(k), 0, 0)
					err = ctx.Write(&t.addrs[k], wbuf)
				}
				if err != nil {
					errs[g] = fmt.Errorf("populate key %d: %w", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *tieredInst) do(gi int) result {
	g := &t.gs[gi]
	o := g.cur.next()
	a := &t.addrs[o.key]
	res := result{kind: int(o.kind), subops: 1, hot: o.hot}
	var err error
	switch o.kind {
	case kRead:
		var n int
		n, err = t.ctxs[gi].Read(a, g.buf)
		if err == nil && !stampOK(g.buf[:n], o.key, t.seq[o.key]) {
			err = errStamp
		}
	case kWrite:
		t.seq[o.key]++
		stamp(g.wbuf, o.key, t.seq[o.key], 0)
		err = t.ctxs[gi].Write(a, g.wbuf)
	}
	if err != nil {
		res.failed = 1
	}
	return res
}

func (t *tieredInst) audit() (checked, bad int) {
	buf := make([]byte, tierBytes)
	for k := range t.addrs {
		checked++
		n, err := t.ctxs[0].Read(&t.addrs[k], buf)
		if err != nil || !stampOK(buf[:n], uint32(k), t.seq[k]) {
			bad++
		}
	}
	return checked, bad
}

func (t *tieredInst) stores() []*core.Store { return []*core.Store{t.srv.Store()} }
func (t *tieredInst) liveBytes() int64      { return tierObjects * tierBytes }
func (t *tieredInst) close() {
	for _, ctx := range t.ctxs {
		if ctx != nil {
			ctx.Close()
		}
	}
	t.srv.Close()
}
