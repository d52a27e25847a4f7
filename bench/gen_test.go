package main

import "testing"

// The same seed must give byte-identical op streams, and another seed
// different ones: the program under test sees nothing but these streams.
func TestStreamsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := digest(w.gen(7)), digest(w.gen(7)), digest(w.gen(8))
		if a != b {
			t.Errorf("%s: seed 7 generated two different streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", w.name)
		}
	}
}

func TestBatchKeysDistinctAndOwned(t *testing.T) {
	for g, s := range genBatch(3) {
		for i := range s.ops {
			seen := make(map[uint32]bool)
			for _, k := range s.keys[i*batchWidth : (i+1)*batchWidth] {
				if seen[k] || int(k%2) != g || k >= pointObjects {
					t.Fatalf("goroutine %d batch %d: key %d repeated, foreign or out of range", g, i, k)
				}
				seen[k] = true
			}
		}
	}
}

func TestStampRoundTrip(t *testing.T) {
	for _, n := range []int{stampMin, pointBytes, kvBytes, tierBytes} {
		buf := make([]byte, n)
		stamp(buf, 42, 7, 9)
		if !stampOK(buf, 42, 7) || stampOK(buf, 42, 8) || stampOK(buf, 43, 7) {
			t.Errorf("%d-byte stamp does not identify (key, seq)", n)
		}
		buf[n-1] ^= 1
		if stampOK(buf, 42, 7) {
			t.Errorf("%d-byte stamp: a torn tail passed", n)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.observe(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100_000
		if got := h.quantile(q); got < want*0.995 || got > want*1.005 {
			t.Errorf("quantile(%v) = %v, want %v within 0.5%%", q, got, want)
		}
	}
}
