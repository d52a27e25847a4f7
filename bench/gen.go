package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"

	"corm/internal/workload"
)

// Populations and mixes. These are the benchmark's definition: changing
// one changes what every recorded number means.
const (
	pointObjects = 65536 // rpc_point and batch_pipeline population
	pointBytes   = 64
	batchWidth   = 64 // sub-operations per batch in batch_pipeline

	kvKeys  = 20000
	kvBytes = 128

	tierObjects = 16384
	tierBytes   = 1024

	zipfTheta = 0.99
	hotShare  = 5 // hot set = top 1/5 of the ranks

	churnCohort = 256 // objects allocated per churn step, all of one size
	churnSmall  = 64  // bytes
	churnLarge  = 512 // bytes
	// The cohort size alternates every churnEpoch steps. Under a steady mix
	// the allocator refills every hole a free leaves and nothing fragments;
	// a class fragments when its objects are freed while allocation has
	// moved to the other class, which is what the compactor exists for.
	churnEpoch     = 64
	churnYoung     = 32   // steps before 7/8 of a cohort is freed
	churnOld       = 128  // further steps before its survivors are retired
	churnReaderSet = 4096 // long-lived objects the reader goroutine owns
)

// op is one generated operation. The program under test sees only these.
type op struct {
	kind uint8
	hot  bool
	key  uint32
}

// stream is one load goroutine's pre-generated input, replayed cyclically
// when a run outlasts it. keys holds batchWidth keys per op for the batch
// workload; picks holds one survivor index per group of eight objects for
// the churn goroutine.
type stream struct {
	ops   []op
	keys  []uint32
	picks []uint8
}

// digest hashes every goroutine's stream; the determinism test compares it.
func digest(ss []stream) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	for _, s := range ss {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s.ops)))
		h.Write(b[:])
		for _, o := range s.ops {
			b[0], b[1] = o.kind, 0
			if o.hot {
				b[1] = 1
			}
			binary.LittleEndian.PutUint32(b[2:], o.key)
			h.Write(b[:6])
		}
		for _, k := range s.keys {
			binary.LittleEndian.PutUint32(b[:], k)
			h.Write(b[:4])
		}
		h.Write(s.picks)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// subSeed separates the goroutines' (and workloads') random streams.
func subSeed(seed int64, workloadIdx, g int) int64 {
	return seed*1_000_003 + int64(workloadIdx)*7919 + int64(g)*104_729 + 1
}

// genPoint: uniform keys, Read 40 / DirectRead 40 / Write 20. The YCSB mix
// draws read-or-write; reads alternate between the two read paths so the
// 40/40 split is exact and needs no second random source.
func genPoint(seed int64) []stream {
	const n = 1 << 18
	y := workload.NewYCSB(subSeed(seed, 0, 0), pointObjects, workload.DistUniform, 0, workload.Mix{Read: 80, Write: 20})
	ops := make([]op, n)
	direct := false
	for i := range ops {
		kind, key := y.Next()
		o := op{kind: kWrite, key: uint32(key)}
		if kind == workload.OpRead {
			o.kind = kRead
			if direct {
				o.kind = kDirectRead
			}
			direct = !direct
		}
		ops[i] = o
	}
	return []stream{{ops: ops}}
}

// genBatch: two goroutines, each cycling the four batch kinds over
// batchWidth distinct uniform keys of its own half of the population (key
// k belongs to goroutine k mod 2, so every key has one writer).
func genBatch(seed int64) []stream {
	const batches = 4096
	kinds := [4]uint8{kMultiRead, kReadAsync, kFetchAddAsync, kMultiWrite}
	out := make([]stream, 2)
	for g := range out {
		u := workload.NewUniform(rand.New(rand.NewSource(subSeed(seed, 1, g))), pointObjects/2)
		s := stream{ops: make([]op, batches), keys: make([]uint32, 0, batches*batchWidth)}
		seen := make(map[uint32]bool, batchWidth)
		for i := range s.ops {
			s.ops[i] = op{kind: kinds[i%4], key: uint32(i)}
			clear(seen)
			for len(seen) < batchWidth {
				k := uint32(u.Next())*2 + uint32(g)
				if !seen[k] {
					seen[k] = true
					s.keys = append(s.keys, k)
				}
			}
		}
		out[g] = s
	}
	return out
}

// genZipf: per goroutine a Zipf stream over its own interleaved half of the
// keys (rank r of goroutine g is key 2r+g), unscrambled so the hot set is
// the low ranks.
func genZipf(seed int64, workloadIdx, keys, n int, mix workload.Mix, readKind, writeKind uint8) []stream {
	out := make([]stream, 2)
	per := uint64(keys / 2)
	for g := range out {
		y := workload.NewYCSBUnscrambled(subSeed(seed, workloadIdx, g), per, workload.DistZipf, zipfTheta, mix)
		ops := make([]op, n)
		for i := range ops {
			kind, rank := y.Next()
			o := op{kind: readKind, key: uint32(rank)*2 + uint32(g)}
			if kind == workload.OpWrite {
				o.kind = writeKind
			} else {
				o.hot = rank < per/hotShare
			}
			ops[i] = o
		}
		out[g] = stream{ops: ops}
	}
	return out
}

func genKV(seed int64) []stream {
	return genZipf(seed, 2, kvKeys, 1<<17, workload.Mix{Read: 80, Write: 20}, kGet, kPut)
}

func genTiered(seed int64) []stream {
	return genZipf(seed, 4, tierObjects, 1<<18, workload.Mix{Read: 90, Write: 10}, kRead, kWrite)
}

// genChurn: goroutine 0 churns (its stream is the survivor pick for each
// group of eight objects), goroutine 1 reads uniformly from its fixed set.
func genChurn(seed int64) []stream {
	pick := workload.NewUniform(rand.New(rand.NewSource(subSeed(seed, 3, 0))), 8)
	picks := make([]uint8, 1<<16)
	for i := range picks {
		picks[i] = uint8(pick.Next())
	}
	u := workload.NewUniform(rand.New(rand.NewSource(subSeed(seed, 3, 1))), churnReaderSet)
	ops := make([]op, 1<<17)
	for i := range ops {
		ops[i] = op{kind: kRead, key: uint32(u.Next())}
	}
	return []stream{{picks: picks}, {ops: ops}}
}

// Stamps. Every value carries its key and the sequence number of the write
// that produced it at both ends, so a read can be checked against the
// writer's last acknowledged write and a torn value shows.
const stampMin = 32

func stampTail(key uint32, seq uint32) uint64 {
	return (uint64(key)<<32 | uint64(seq)) * 0x9e3779b97f4a7c15
}

// stamp fills buf with the value of (key, seq). ctr is the FetchAdd target
// word (offset 16), zero where unused.
func stamp(buf []byte, key, seq uint32, ctr uint64) {
	tail := stampTail(key, seq)
	binary.LittleEndian.PutUint64(buf[0:], uint64(key))
	binary.LittleEndian.PutUint64(buf[8:], uint64(seq))
	binary.LittleEndian.PutUint64(buf[16:], ctr)
	for off := 24; off+8 <= len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], tail)
	}
}

const ctrOffset = 16

// stampOK checks both ends of a value read back.
func stampOK(buf []byte, key, seq uint32) bool {
	return len(buf) >= stampMin &&
		binary.LittleEndian.Uint64(buf[0:]) == uint64(key) &&
		binary.LittleEndian.Uint64(buf[8:]) == uint64(seq) &&
		binary.LittleEndian.Uint64(buf[len(buf)-8:]) == stampTail(key, seq)
}
