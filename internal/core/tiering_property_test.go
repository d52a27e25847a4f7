package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tieredStore builds a data-backed store whose frame budget is far below
// the working set, so every test below runs genuinely oversubscribed.
func tieredStore(t *testing.T, budget int64, mutate func(*Config)) *Store {
	t.Helper()
	return testStore(t, func(c *Config) {
		c.MemBudgetBytes = budget
		c.TierSpec = "compressed"
		c.FragThreshold = 1.2
		if mutate != nil {
			mutate(c)
		}
	})
}

// TestTieredEvictFaultRoundtrip is the deterministic half of the elastic-
// memory invariant: force every block out, then read everything back and
// demand byte-identical payloads through the fault-in path, on the
// compressed in-memory tier and on the disk tier.
func TestTieredEvictFaultRoundtrip(t *testing.T) {
	for _, spec := range []string{"compressed", "disk"} {
		t.Run(spec, func(t *testing.T) {
			s := tieredStore(t, 1<<20, func(c *Config) { c.TierSpec = spec })
			defer s.Close()
			const size, objs = 512, 64

			addrs := make([]Addr, objs)
			for i := range addrs {
				r, err := s.AllocOn(0, size)
				if err != nil {
					t.Fatal(err)
				}
				addrs[i] = r.Addr
				if err := s.Write(&addrs[i], fill(size, byte(i))); err != nil {
					t.Fatal(err)
				}
			}

			evicted := 0
			for {
				n := s.EvictBlocks(16)
				if n == 0 {
					break
				}
				evicted += n
			}
			if evicted == 0 {
				t.Fatal("EvictBlocks evicted nothing")
			}
			if s.Residency().Stats().EvictedBlocks == 0 {
				t.Fatal("no blocks in evicted state after full sweep")
			}

			buf := make([]byte, s.ClassSize(int(addrs[0].Class())))
			for i := range addrs {
				if _, err := s.Read(&addrs[i], buf); err != nil {
					t.Fatalf("read %d after eviction: %v", i, err)
				}
				if !bytes.Equal(buf[:size], fill(size, byte(i))) {
					t.Fatalf("object %d corrupted across evict/fault cycle", i)
				}
			}
			st := s.Residency().Stats()
			if st.FaultIns == 0 {
				t.Fatal("reads did not fault anything in")
			}
			// Writes to evicted blocks must fault in too.
			for {
				if s.EvictBlocks(16) == 0 {
					break
				}
			}
			if err := s.Write(&addrs[0], fill(size, 0xEE)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Read(&addrs[0], buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf[:size], fill(size, 0xEE)) {
				t.Fatal("write to evicted block lost through fault-in")
			}
		})
	}
}

// TestTieredFreeEvictedObject pins that freeing an object in an evicted
// block works (the block faults in for the slot update) and does not leak
// frames or spill images.
func TestTieredFreeEvictedObject(t *testing.T) {
	s := tieredStore(t, 1<<20, nil)
	defer s.Close()
	r, err := s.AllocOn(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(&r.Addr, fill(512, 7)); err != nil {
		t.Fatal(err)
	}
	for s.EvictBlocks(16) > 0 {
	}
	if err := s.Free(&r.Addr); err != nil {
		t.Fatalf("free of evicted object: %v", err)
	}
	if _, err := s.Read(&r.Addr, make([]byte, 512)); err == nil {
		t.Fatal("read after free succeeded")
	}
}

// TestTieredConcurrentProperty is the randomized -race half: workers churn
// their own partition of objects (write, verify-read, free/realloc) while
// one goroutine force-evicts cold blocks and another runs full compaction
// sweeps. Partitioned ownership makes every verification exact — any torn
// read, lost write, or zeroed fault-in shows up as a byte mismatch.
func TestTieredConcurrentProperty(t *testing.T) {
	const (
		workers = 4
		perW    = 48
		size    = 512
		rounds  = 300
	)
	// ~96 KiB of live data across ~24 blocks against a 48 KiB frame budget:
	// every allocation and fault-in has to evict something else first.
	s := tieredStore(t, 48<<10, func(c *Config) { c.Workers = workers })
	defer s.Close()

	type obj struct {
		addr Addr
		ver  byte
		live bool
	}

	// A block mid-merge answers ErrCompacting: nothing was done and the
	// caller retries (§3.2.3; rpc clients and the benchmark do). The
	// compactor below runs flat out, so workers do meet it: without the
	// retry 27 of 100 runs fail on it, at the parent commit as well. A merge
	// holds a block for microseconds, so the retry is bounded: an op still
	// refused after two seconds is a stuck flag and fails the test.
	retry := func(op func() error) error {
		for deadline := time.Now().Add(2 * time.Second); ; runtime.Gosched() {
			if err := op(); !errors.Is(err, ErrCompacting) || time.Now().After(deadline) {
				return err
			}
		}
	}
	read := func(a *Addr, buf []byte) error {
		return retry(func() error { _, err := s.Read(a, buf); return err })
	}

	var stop atomic.Bool
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // compaction racing both eviction and the data path
		defer aux.Done()
		for !stop.Load() {
			s.CompactAll(0, nil)
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(100 + w)))
			objs := make([]obj, perW)
			pay := func(i int, ver byte) []byte {
				return fill(size, byte(w)*31+byte(i)+ver)
			}
			for i := range objs {
				r, err := s.AllocOn(w, size)
				if err != nil {
					errs <- err
					return
				}
				objs[i] = obj{addr: r.Addr, ver: 1, live: true}
				if err := retry(func() error { return s.Write(&objs[i].addr, pay(i, 1)) }); err != nil {
					errs <- err
					return
				}
			}
			buf := make([]byte, s.ClassSize(int(objs[0].addr.Class())))
			for round := 0; round < rounds; round++ {
				if round%5 == w {
					// Each worker doubles as eviction pressure: the soft
					// budget alone rarely wins its TryLock race against
					// busy owner locks, and the whole point here is
					// fault-ins racing evictions from *other* goroutines.
					s.EvictBlocks(2)
				}
				i := rnd.Intn(perW)
				o := &objs[i]
				switch {
				case o.live && rnd.Float64() < 0.08:
					// Free without reallocating: the holes this leaves are
					// what gives the racing compactor merges to perform.
					if err := retry(func() error { return s.Free(&o.addr) }); err != nil {
						errs <- fmt.Errorf("w%d free %d: %w", w, i, err)
						return
					}
					o.live = false
				case !o.live || rnd.Float64() < 0.1:
					// Churn: free (if live) and reallocate at a new address.
					if o.live {
						if err := retry(func() error { return s.Free(&o.addr) }); err != nil {
							errs <- fmt.Errorf("w%d free %d: %w", w, i, err)
							return
						}
					}
					r, err := s.AllocOn(w, size)
					if err != nil {
						errs <- err
						return
					}
					o.addr, o.ver, o.live = r.Addr, o.ver+1, true
					if err := retry(func() error { return s.Write(&o.addr, pay(i, o.ver)) }); err != nil {
						errs <- fmt.Errorf("w%d rewrite %d: %w", w, i, err)
						return
					}
				case rnd.Float64() < 0.3:
					o.ver++
					if err := retry(func() error { return s.Write(&o.addr, pay(i, o.ver)) }); err != nil {
						errs <- fmt.Errorf("w%d write %d: %w", w, i, err)
						return
					}
				default:
					if err := read(&o.addr, buf); err != nil {
						errs <- fmt.Errorf("w%d read %d: %w", w, i, err)
						return
					}
					if !bytes.Equal(buf[:size], pay(i, o.ver)) {
						errs <- fmt.Errorf("w%d object %d corrupt at ver %d", w, i, o.ver)
						return
					}
				}
			}
			// Final audit of the whole partition.
			for i := range objs {
				o := &objs[i]
				if !o.live {
					continue
				}
				if err := read(&o.addr, buf); err != nil {
					errs <- fmt.Errorf("w%d audit %d: %w", w, i, err)
					return
				}
				if !bytes.Equal(buf[:size], pay(i, o.ver)) {
					errs <- fmt.Errorf("w%d audit %d corrupt", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	aux.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Residency().Stats()
	if st.SpillOuts < 20 || st.FaultIns < 20 {
		t.Fatalf("too little tier traffic under oversubscription: %+v", st)
	}
	// Most rounds only read, so blocks do get evicted unwritten: the churn
	// must exercise the skip-the-write-back path, not just the write-back.
	if st.CleanEvictions == 0 {
		t.Fatalf("churn never took the clean-eviction path: %+v", st)
	}
	t.Logf("spillouts=%d (clean %d) faultins=%d compactions=%d", st.SpillOuts, st.CleanEvictions, st.FaultIns, s.Stats().Compactions)
}
