package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"corm/internal/core"
)

// Grace-period reclamation of replaced records, and their reuse as the next
// Put's slots. Invariants (DESIGN.md §12, "Write path"):
//
//   - Readers. Every path that snapshots an index entry and then touches its
//     records (get, MultiGet, FetchAdd with its propagation, RepairKey)
//     holds a reader registration for as long as it may use the snapshot. A
//     record leaves the index before it is retired, and a retired record is
//     neither freed nor reused while any reader that could hold it is
//     registered. Put never writes a record the index references.
//   - Exclusive ownership. A spare popped by take belongs to exactly one Put;
//     neither the index nor any reader references it.
//   - Node incarnation. A record is only known good for the node incarnation
//     it was allocated on (kvReplica.inc): a rebuilt store reissues the same
//     virtual addresses. A record or spare from an older incarnation is never
//     reused; it is freed only after a read shows its slot still holds its
//     tag, and abandoned otherwise.
//
// Two epochs suffice: records retired during epoch e wait in limbo[e&1]
// until every reader registered in epoch e has exited, which the move from
// e+1 to e+2 checks. A reader's exit is one decrement; release work runs
// only on retire and Delete.
type reclaimer struct {
	pool    *Pool
	epoch   atomic.Uint64
	readers [2]atomic.Int64

	mu     sync.Mutex
	limbo  [2][]kvReplica
	spares map[spareKey][]kvReplica // (node, class capacity) → free slots
	// bg counts background work that may still retire or free records:
	// frees running off the caller's path and Put stragglers in flight.
	bg atomic.Int64
	// merging, set by tests, makes a record's block look mid-merge to its
	// reuse write and its free (both then meet core.ErrCompacting).
	merging func(GlobalAddr) bool
}

type spareKey struct{ node, class int }

const (
	// spareCap bounds each per-(node, class) spare stack; retirements past
	// it are freed.
	spareCap = 32
	// freeAttempts bounds the retries of a free that meets a merge before
	// it waits for the next release pass.
	freeAttempts = 5
	// drainWait bounds how long Delete waits out the grace period, and how
	// long an emptying Delete waits for background work.
	drainWait = time.Second
)

func newReclaimer(p *Pool) *reclaimer {
	return &reclaimer{pool: p, spares: map[spareKey][]kvReplica{}}
}

// enter registers a reader; call it before taking the snapshot.
func (rc *reclaimer) enter() uint64 {
	for {
		e := rc.epoch.Load()
		rc.readers[e&1].Add(1)
		if rc.epoch.Load() == e {
			return e
		}
		rc.readers[e&1].Add(-1)
	}
}

func (rc *reclaimer) exit(e uint64) { rc.readers[e&1].Add(-1) }

// retire hands over records that no index entry references any more. With
// no reader registered they are released at once; overflow is freed off
// the caller's path.
func (rc *reclaimer) retire(recs ...kvReplica) {
	rc.mu.Lock()
	rc.freeLaterLocked(rc.releaseLocked(recs, nil))
	rc.mu.Unlock()
}

// freeLaterLocked frees recs on a goroutine of their own, counted in
// rc.bg; call it with rc.mu held.
func (rc *reclaimer) freeLaterLocked(recs []kvReplica) {
	if len(recs) == 0 {
		return
	}
	rc.bg.Add(1)
	go func() {
		rc.free(recs)
		rc.bg.Add(-1)
	}()
}

// waitIdle waits, at most drainWait, until no background work is counted.
func (rc *reclaimer) waitIdle() {
	for deadline := time.Now().Add(drainWait); rc.bg.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
}

// drain is Delete's retire: it waits out the grace period, then frees the
// records on the caller's path. They are never stocked, so their blocks
// stay open to compaction. A Delete that empties the index also frees the
// whole spare stock: a KV with no keys holds no memory on any store. So it
// first waits for the background work in flight — a straggler's slot then
// reaches limbo before the grace period starts — and at the end for the
// frees running off the caller's path. Records a reader still holds after
// drainWait stay in limbo; background work still running after drainWait
// retires its slots after the Delete returns.
func (rc *reclaimer) drain(recs []kvReplica, empty bool) error {
	for i := range recs {
		recs[i].classSize = 0 // unstockable
	}
	if empty {
		rc.waitIdle()
	}
	rc.mu.Lock()
	end, deadline := rc.epoch.Load()+2, time.Now().Add(drainWait)
	out := rc.releaseLocked(recs, nil)
	for rc.epoch.Load() < end && time.Now().Before(deadline) {
		rc.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
		rc.mu.Lock()
		out = rc.releaseLocked(nil, out)
	}
	if empty {
		for _, st := range rc.spares {
			out = append(out, st...)
		}
		clear(rc.spares)
	}
	rc.mu.Unlock()
	err := rc.free(out)
	if empty {
		rc.waitIdle()
	}
	return err
}

// releaseLocked adds recs to the current epoch's limbo and advances as far
// as the registered readers allow. Released records of the current
// incarnation are stocked as spares; the rest, and overflow, are appended
// to out for free.
func (rc *reclaimer) releaseLocked(recs, out []kvReplica) []kvReplica {
	e := rc.epoch.Load()
	rc.limbo[e&1] = append(rc.limbo[e&1], recs...)
	// limbo[(e+1)&1] was retired during e-1; readers[(e+1)&1] counts its
	// readers.
	for i := 0; i < 2 && rc.readers[(e+1)&1].Load() == 0; i, e = i+1, e+1 {
		for _, r := range rc.limbo[(e+1)&1] {
			k := spareKey{r.addr.Node, r.classSize}
			var st []kvReplica
			if st, out = rc.current(k, out); r.classSize > 0 && len(st) < spareCap &&
				r.inc == rc.pool.incarnation(k.node) {
				rc.spares[k] = append(st, r)
			} else {
				out = append(out, r)
			}
		}
		rc.limbo[(e+1)&1] = nil
		rc.epoch.Store(e + 1)
	}
	return out
}

// current returns a spare stack, first moving it whole to out if its node
// has moved on to a new incarnation (stacks fill in incarnation order, so
// a stale top means every entry is stale).
func (rc *reclaimer) current(k spareKey, out []kvReplica) ([]kvReplica, []kvReplica) {
	st := rc.spares[k]
	if n := len(st); n > 0 && st[n-1].inc != rc.pool.incarnation(k.node) {
		out, st = append(out, st...), nil
		delete(rc.spares, k)
	}
	return st, out
}

// take pops a spare slot of the given class on node, if the class holds
// size bytes.
func (rc *reclaimer) take(node, class, size int) (r kvReplica, ok bool) {
	if class < size {
		return r, false
	}
	k := spareKey{node, class}
	rc.mu.Lock()
	st, stale := rc.current(k, nil)
	if ok = len(st) > 0; ok {
		r, rc.spares[k] = st[len(st)-1], st[:len(st)-1]
	}
	rc.freeLaterLocked(stale)
	rc.mu.Unlock()
	return r, ok
}

// free releases records — one MultiFree frame per node — after verify,
// retrying those that meet a merge with bounded backoff. Any still
// mid-merge after the last attempt go back to limbo, marked unstockable
// (class 0), for the next release pass: no record is dropped. It returns
// the first failure other than a record or node already gone.
func (rc *reclaimer) free(recs []kvReplica) error {
	recs = rc.verify(recs)
	var firstErr error
	for attempt := 0; len(recs) > 0; attempt++ {
		if attempt == freeAttempts {
			for i := range recs {
				recs[i].classSize = 0
			}
			rc.mu.Lock()
			e := rc.epoch.Load()
			rc.limbo[e&1] = append(rc.limbo[e&1], recs...)
			rc.mu.Unlock()
			break
		}
		if attempt > 0 {
			time.Sleep(time.Millisecond << attempt)
		}
		var busy, sent []kvReplica
		var gs []*GlobalAddr
		for _, r := range recs {
			if rc.merging != nil && rc.merging(r.addr) {
				busy = append(busy, r)
				continue
			}
			gs, sent = append(gs, &r.addr), append(sent, r)
		}
		res, _ := rc.pool.MultiFree(gs)
		for i := range res {
			switch err := res[i].Err; {
			case errors.Is(err, core.ErrCompacting):
				busy = append(busy, sent[i])
			case err != nil && firstErr == nil && !isMissing(err) && !errors.Is(err, ErrNodeDown):
				firstErr = err
			}
		}
		recs = busy
	}
	return firstErr
}

// verify filters recs down to those safe to free by address: records of
// their node's current incarnation, untagged ones (an unreplicated KV has
// no tag to check and frees by address, as it always has), and older ones
// whose slot a read shows still holding the tag they were written with —
// those are adopted into the current incarnation. An older record that
// fails the check is abandoned: its node may be a rebuilt store that
// reissued the address to another record, or be down, where a free could
// not land either.
func (rc *reclaimer) verify(recs []kvReplica) []kvReplica {
	keep := recs[:0]
	for _, r := range recs {
		if inc := rc.pool.incarnation(r.addr.Node); r.inc != inc && r.tag != 0 {
			if !rc.pool.holdsTag(&r.addr, r.tag) {
				continue
			}
			r.inc = inc
		}
		keep = append(keep, r)
	}
	return keep
}

// holdsTag reports whether the record at g (corrected in place) carries the
// version tag.
func (p *Pool) holdsTag(g *GlobalAddr, tag uint64) bool {
	_, c, err := p.readRecord(kvReplica{addr: *g}, tag)
	*g = c
	return err == nil
}
