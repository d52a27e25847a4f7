package main

import (
	"math/bits"
	"sort"
	"syscall"
	"time"
)

// hist is a fixed-resolution latency histogram over nanoseconds: exact
// below 256 ns, then 256 linear sub-buckets per power of two (0.4 %
// relative resolution). metrics.Histogram's 6 % buckets are too coarse to
// hold a p50 to a 10 % bound, so the benchmark keeps its own.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    int64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	histMaxBits = 36 // ~69 s; slower ops clamp into the last bucket
	histBuckets = (histMaxBits-histSubBits)*histSub + histSub
)

func histIdx(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - histSubBits - 1
	idx := exp*histSub + int(uint64(v)>>uint(exp))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns the half-open value range [lo, hi) of bucket idx.
func histBounds(idx int) (lo, hi float64) {
	if idx < histSub {
		return float64(idx), float64(idx + 1)
	}
	exp := uint(idx/histSub - 1)
	m := uint64(idx) - uint64(exp)*histSub
	return float64(m << exp), float64((m + 1) << exp)
}

func (h *hist) observe(ns int64) {
	h.counts[histIdx(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	if o == nil {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile interpolates inside the bucket holding rank q·n, so two runs
// whose samples differ never report the same figure by rounding.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := histBounds(i)
			v := lo + (hi-lo)*(target-cum)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// Op kinds. One enum serves all workloads; each uses a few.
const (
	kRead = iota
	kDirectRead
	kWrite
	kMultiRead
	kReadAsync
	kFetchAddAsync
	kMultiWrite
	kGet
	kPut
	kFree
	kRetire
	kHotRead // a read-class op on a hot key, recorded beside its own kind
	nKinds
)

var kindNames = [nKinds]string{
	"read", "direct_read", "write", "multi_read", "read_async",
	"fetch_add_async", "multi_write", "get", "put", "free", "retire", "hot_read",
}

// nWindows is how many equal sub-windows a timed window is cut into. Every
// end-to-end figure is computed per sub-window and the fifteen values are
// reduced to one that a burst of host noise (the sandbox shares two cores
// with whatever else the host runs) does not move: the lower quartile for
// latencies and CPU cost (see calm), the median for the rate, which on
// churn_compact swings with the churn's own phases, so that the best
// sub-windows are the phases that fell into them.
const nWindows = 15

// recorder collects one load goroutine's samples. Not shared.
type recorder struct {
	start  time.Duration // timed window start on the run clock
	winLen time.Duration
	hists  [nWindows][nKinds]*hist
	ops    [nWindows]int64 // successful sub-ops by completion window
	slow   int64           // hot reads slower than hotSlowNs
	hot    int64
	att    int64
	fail   int64
	retry  int64 // ErrCompacting retries
}

const hotSlowNs = 10_000

// result is what one executed op reports to the recorder.
type result struct {
	kind   int
	subops int  // sub-operations attempted (1 for point ops)
	failed int  // of which failed (error, refusal or stamp mismatch)
	hot    bool // a read-class op on a hot key
	retry  int  // ErrCompacting retries spent inside the op
}

func (r *recorder) observe(res result, t0, t1 time.Duration) {
	w := int((t1 - r.start) / r.winLen)
	if t1 < r.start || w >= nWindows {
		return // warm-up, or finished after the window closed
	}
	r.att += int64(res.subops)
	r.fail += int64(res.failed)
	r.retry += int64(res.retry)
	r.ops[w] += int64(res.subops - res.failed)
	ns := int64(t1 - t0)
	r.hist(w, res.kind).observe(ns)
	if res.hot {
		r.hist(w, kHotRead).observe(ns)
		r.hot++
		if ns > hotSlowNs {
			r.slow++
		}
	}
}

func (r *recorder) hist(w, kind int) *hist {
	h := r.hists[w][kind]
	if h == nil {
		h = new(hist)
		r.hists[w][kind] = h
	}
	return h
}

// summary is the merged view of all recorders of one timed window.
type summary struct {
	winLen  time.Duration
	ops     [nWindows]int64
	cpuUs   [nWindows]float64 // process CPU per sub-window
	wins    [nWindows][nKinds]*hist
	total   [nKinds]*hist
	att     int64
	fail    int64
	retry   int64
	hot     int64
	hotSlow int64

	activePerLive float64 // mean of active bytes / live payload bytes, sampled
}

func summarize(recs []*recorder, cpuUs [nWindows]float64) *summary {
	s := &summary{winLen: recs[0].winLen, cpuUs: cpuUs}
	for _, r := range recs {
		s.att += r.att
		s.fail += r.fail
		s.retry += r.retry
		s.hot += r.hot
		s.hotSlow += r.slow
		for w := 0; w < nWindows; w++ {
			s.ops[w] += r.ops[w]
			for k := 0; k < nKinds; k++ {
				h := r.hists[w][k]
				if h == nil {
					continue
				}
				if s.wins[w][k] == nil {
					s.wins[w][k] = new(hist)
					if s.total[k] == nil {
						s.total[k] = new(hist)
					}
				}
				s.wins[w][k].merge(h)
				s.total[k].merge(h)
			}
		}
	}
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// calm is the lower quartile of the sub-window values of a latency or a
// cost: the fourth lowest of fifteen. Whatever else runs on the host only
// ever adds time, and it comes and goes in stretches of seconds, so the
// lower quartile says what the program does when it is left alone and still
// needs a quarter of the run to agree. A change that makes the program
// slower moves every sub-window, and this with them.
func calm(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
}

// quantileUs is the calm quartile over sub-windows of the kind's q-quantile.
func (s *summary) quantileUs(kind int, q float64) float64 {
	var v []float64
	for w := 0; w < nWindows; w++ {
		if h := s.wins[w][kind]; h != nil && h.n > 0 {
			v = append(v, h.quantile(q)/1e3)
		}
	}
	return calm(v)
}

func (s *summary) samples(kind int) uint64 {
	if s.total[kind] == nil {
		return 0
	}
	return s.total[kind].n
}

func (s *summary) totalOps() int64 {
	var n int64
	for _, o := range s.ops {
		n += o
	}
	return n
}

func (s *summary) opsPerSec() float64 {
	v := make([]float64, nWindows)
	for w, o := range s.ops {
		v[w] = float64(o) / s.winLen.Seconds()
	}
	return median(v)
}

func (s *summary) cpuUsPerOp() float64 {
	var v []float64
	for w, o := range s.ops {
		if o > 0 {
			v = append(v, s.cpuUs[w]/float64(o))
		}
	}
	return calm(v)
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}
