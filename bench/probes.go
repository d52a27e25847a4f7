package main

import (
	"fmt"
	"math/rand"
	"time"

	"corm/internal/client"
	"corm/internal/core"
	"corm/internal/rpc"
	"corm/internal/transport"
	"corm/internal/workload"
)

// Stacked probes: the same operation is called at each layer boundary from
// one goroutine, and a layer's self time is the median of its call minus
// the median of the call one level down. Everything is called from outside,
// through the layers' public functions.

// probeStep is one operation timed at one layer boundary.
type probeStep struct {
	name string
	fn   func(i int) error
}

// medians times calls of every step and returns each step's median in
// nanoseconds. The steps take turns in chunks of 1000 calls, so a change in
// the host's speed falls on all of them alike and does not show up as a
// difference between two layers. Each chunk is preceded by 2 ms of untimed
// calls: a CPU-bound step that follows a step spent waiting on the
// loopback otherwise starts on a core that has clocked down.
func medians(steps []probeStep, calls int) (map[string]float64, error) {
	const chunk = 1000
	d := make([][]float64, len(steps))
	for done := 0; done < calls; done += chunk {
		for si, s := range steps {
			for warm, i := time.Now(), 0; time.Since(warm) < 2*time.Millisecond; i++ {
				if err := s.fn(done + i); err != nil {
					return nil, fmt.Errorf("probe %s: %w", s.name, err)
				}
			}
			for i := 0; i < chunk; i++ {
				t0 := time.Now()
				if err := s.fn(done + i); err != nil {
					return nil, fmt.Errorf("probe %s: %w", s.name, err)
				}
				d[si] = append(d[si], float64(time.Since(t0)))
			}
		}
	}
	m := make(map[string]float64, len(steps))
	for si, s := range steps {
		m[s.name] = median(d[si])
	}
	return m, nil
}

func statusErr(resp rpc.Response, err error) error {
	if err != nil {
		return err
	}
	return resp.Status.Err()
}

// probeStore builds a store like a node's, by hand, because the probes
// need the rpc.Server that corm.Server keeps to itself.
func probeStore(edit func(*core.Config)) (*core.Store, error) {
	cfg := nodeConfig()
	if edit != nil {
		edit(&cfg)
	}
	return core.NewStore(cfg)
}

// probeWire measures the read, write and batch path at every boundary from
// core.Store up to client.Ctx over the rpc_point population.
func probeWire(seed int64, calls int, out map[string]float64) error {
	store, err := probeStore(nil)
	if err != nil {
		return err
	}
	defer store.Close()
	rsrv := rpc.NewServer(store)
	defer rsrv.Close()
	tsrv, err := transport.Listen("127.0.0.1:0", rsrv)
	if err != nil {
		return err
	}
	defer tsrv.Close()

	addrs := make([]core.Addr, pointObjects)
	payload := make([]byte, pointBytes)
	for i := range addrs {
		r, err := store.AllocOn(i%store.Workers(), pointBytes)
		if err != nil {
			return err
		}
		addrs[i] = r.Addr
		stamp(payload, uint32(i), 0, 0)
		if err := store.Write(&addrs[i], payload); err != nil {
			return err
		}
	}
	u := workload.NewUniform(rand.New(rand.NewSource(subSeed(seed, 5, 0))), pointObjects)
	keys := make([]uint32, calls)
	for i := range keys {
		keys[i] = uint32(u.Next())
	}
	pick := func(i int) *core.Addr { return &addrs[keys[i%len(keys)]] }

	buf := make([]byte, pointBytes)
	class := int(addrs[0].Class())
	stride := store.Stride(class)
	raw := make([]byte, stride)
	// Touch every object once, so the first probe does not pay for the
	// population's cold pages.
	for i := range addrs {
		if _, err := store.Read(&addrs[i], buf); err != nil {
			return err
		}
	}
	qp := store.ConnectClient()
	defer qp.Close()
	// rpc.Server is called the way the transport server calls it.
	var dst []byte
	submit := func(req rpc.Request) error {
		dst = rsrv.SubmitAppend(req, dst[:0])
		resp, err := rpc.UnmarshalResponseView(dst)
		return statusErr(resp, err)
	}
	// transport.Conn over TCP loopback and over shared memory; client.Ctx on
	// a TCP connection of its own.
	tcp, err := transport.DialOptions(tsrv.Addr(), transport.Options{DisableSharedMemory: true})
	if err != nil {
		return err
	}
	defer tcp.Close()
	shm, err := transport.DialOptions(tsrv.Addr(), transport.Options{})
	if err != nil {
		return err
	}
	defer shm.Close()
	ctx, err := client.CreateCtxOptions(tsrv.Addr(), transport.Options{DisableSharedMemory: true})
	if err != nil {
		return err
	}
	defer ctx.Close()
	call := func(c *transport.Conn) func(i int) error {
		return func(i int) error {
			resp, lease, err := c.CallLease(rpc.Request{Op: rpc.OpRead, Addr: *pick(i), Size: pointBytes})
			err = statusErr(resp, err)
			lease.Release()
			return err
		}
	}
	steps := []probeStep{
		{"core.read", func(i int) error { _, err := store.Read(pick(i), buf); return err }},
		{"core.write", func(i int) error { return store.Write(pick(i), payload) }},
		{"core.alloc_free", func(i int) error {
			r, err := store.AllocOn(0, pointBytes)
			if err != nil {
				return err
			}
			return store.Free(&r.Addr)
		}},
		{"core.fetch_add", func(i int) error { _, err := store.FetchAdd(pick(i), ctrOffset, 1); return err }},
		{"rnic.read", func(i int) error {
			a := pick(i)
			_, err := qp.QP().Read(a.RKey(), a.VAddr(), raw)
			return err
		}},
		{"rpc.read", func(i int) error { return submit(rpc.Request{Op: rpc.OpRead, Addr: *pick(i), Size: pointBytes}) }},
		{"rpc.write", func(i int) error { return submit(rpc.Request{Op: rpc.OpWrite, Addr: *pick(i), Payload: payload}) }},
		{"transport.tcp_call", call(tcp)},
		{"transport.shm_call", call(shm)},
		{"transport.tcp_dma", func(i int) error {
			a := pick(i)
			lease, _, err := tcp.DirectReadLease(a.RKey(), a.VAddr(), stride)
			lease.Release()
			return err
		}},
		{"client.read", func(i int) error { a := *pick(i); _, err := ctx.Read(&a, buf); return err }},
		{"client.direct_read", func(i int) error { a := *pick(i); _, err := ctx.DirectRead(&a, buf); return err }},
	}
	m, err := medians(steps, calls)
	if err != nil {
		return err
	}
	// One 128-wide batch of reads per call; fewer calls, same sub-op count.
	const wide = 128
	subs := make([]rpc.Request, wide)
	var batchPayload []byte
	bm, err := medians([]probeStep{{"rpc.batch128", func(i int) error {
		for j := range subs {
			subs[j] = rpc.Request{Op: rpc.OpRead, Addr: *pick(i*wide + j), Size: pointBytes}
		}
		batchPayload = rpc.MarshalBatchRequests(batchPayload[:0], subs)
		return submit(rpc.Request{Op: rpc.OpBatch, Payload: batchPayload})
	}}}, max(calls/16, 100))
	if err != nil {
		return err
	}
	m["rpc.batch128"] = bm["rpc.batch128"]

	out["core.read_ns"] = m["core.read"]
	out["core.write_ns"] = m["core.write"]
	out["core.alloc_free_ns"] = m["core.alloc_free"]
	out["core.fetch_add_ns"] = m["core.fetch_add"]
	out["rnic.oneside_read_ns"] = m["rnic.read"]
	out["rpc.read_self_ns"] = m["rpc.read"] - m["core.read"]
	out["rpc.write_self_ns"] = m["rpc.write"] - m["core.write"]
	out["rpc.batch128_subop_ns"] = m["rpc.batch128"] / wide
	out["transport.tcp_call_self_ns"] = m["transport.tcp_call"] - m["rpc.read"]
	out["transport.shm_call_self_ns"] = m["transport.shm_call"] - m["rpc.read"]
	out["transport.tcp_dma_self_ns"] = m["transport.tcp_dma"] - m["rnic.read"]
	out["client.read_self_ns"] = m["client.read"] - m["transport.tcp_call"]
	out["client.direct_read_self_ns"] = m["client.direct_read"] - m["transport.tcp_dma"]
	return nil
}

// probeTier measures one block's spill and fault-in on a store whose
// budget holds everything, so only the explicit EvictBlocks evicts.
func probeTier(calls int, out map[string]float64) error {
	const objects = 4096
	store, err := probeStore(func(c *core.Config) {
		c.MemBudgetBytes = 8 * objects * tierBytes
		c.TierSpec = "compressed"
	})
	if err != nil {
		return err
	}
	defer store.Close()
	addrs := make([]core.Addr, objects)
	payload := make([]byte, tierBytes)
	for i := range addrs {
		r, err := store.AllocOn(0, tierBytes)
		if err != nil {
			return err
		}
		addrs[i] = r.Addr
		stamp(payload, uint32(i), 0, 0)
		if err := store.Write(&addrs[i], payload); err != nil {
			return err
		}
	}
	buf := make([]byte, tierBytes)
	var spill, fault, resident []float64
	const perRound = 64
	for len(fault) < calls {
		for i := 0; i < perRound; i++ {
			t0 := time.Now()
			n := store.EvictBlocks(1)
			if d := time.Since(t0); n == 1 {
				spill = append(spill, float64(d))
			}
		}
		before := len(fault)
		for i := range addrs {
			seen := store.Residency().Stats().FaultIns
			t0 := time.Now()
			_, err := store.Read(&addrs[i], buf)
			d := float64(time.Since(t0))
			if err != nil {
				return fmt.Errorf("probe tier read: %w", err)
			}
			if store.Residency().Stats().FaultIns > seen {
				fault = append(fault, d)
			} else {
				resident = append(resident, d)
			}
		}
		if len(fault) == before {
			return fmt.Errorf("probe tier: EvictBlocks evicted nothing")
		}
	}
	out["tier.spill_ns"] = median(spill)
	out["tier.faultin_ns"] = median(fault) - median(resident)
	return nil
}

// probeCompact times CompactClass on a class prepared to one live object
// in eight, per merge.
func probeCompact(picks []uint8, rounds int, out map[string]float64) error {
	const objects = 32768
	var perMerge []float64
	for r := 0; r < rounds; r++ {
		store, err := probeStore(nil)
		if err != nil {
			return err
		}
		addrs := make([]core.Addr, objects)
		payload := make([]byte, churnSmall)
		for i := range addrs {
			res, err := store.AllocOn(0, churnSmall)
			if err != nil {
				store.Close()
				return err
			}
			addrs[i] = res.Addr
			stamp(payload, uint32(i), 0, 0)
			if err := store.Write(&addrs[i], payload); err != nil {
				store.Close()
				return err
			}
		}
		for i := range addrs {
			if i%8 != int(picks[(r*objects+i)/8%len(picks)]) {
				if err := store.Free(&addrs[i]); err != nil {
					store.Close()
					return err
				}
			}
		}
		t0 := time.Now()
		rep := store.CompactClass(core.CompactOptions{Class: int(addrs[0].Class())})
		d := time.Since(t0)
		store.Close()
		if rep.Merges == 0 {
			return fmt.Errorf("probe compact: prepared class did not merge")
		}
		perMerge = append(perMerge, float64(d)/1e3/float64(rep.Merges))
	}
	out["core.compact_merge_us"] = median(perMerge)
	return nil
}
