package main

import "testing"

// directReadAllocs is what one client DirectRead allocates, client and
// in-process server together, on a freshly set-up rpc_point population.
func directReadAllocs(t *testing.T, shimmed bool) float64 {
	t.Helper()
	inst, err := setupPoint(genPoint(1), newTracer(), shimmed)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	p := inst.(*pointInst)
	buf := make([]byte, pointBytes)
	read := func() {
		if _, err := p.ctx.DirectRead(&p.addrs[0], buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		read()
	}
	return testing.AllocsPerRun(500, read)
}

// A traced client must take the same paths as an untraced one: the shim
// forwards the lease facets, so a DirectRead through it allocates exactly
// what one without it does. (Client and server share the process, so the
// count includes the server's end of the DMA channel.)
func TestShimDirectReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	raw, shimmed := directReadAllocs(t, false), directReadAllocs(t, true)
	if shimmed != raw {
		t.Fatalf("DirectRead costs %.0f allocs/op through the shim, %.0f without", shimmed, raw)
	}
}

// tracedSpans sets a workload up on the shim and records a short traced
// window on one goroutine.
func tracedSpans(t *testing.T, name string) []span {
	t.Helper()
	w, _ := workloadByName(name)
	tr := newTracer()
	ss := w.gen(1)
	inst, err := w.setup(ss, tr, true)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	tr.enabled.Store(true)
	facts := runWindow(inst, tr, len(ss), false, 0, configFor(0.5, true).seconds, nil)
	tr.enabled.Store(false)
	if facts.sum.fail != 0 || facts.sum.att == 0 {
		t.Fatalf("%s: %d of %d ops failed", name, facts.sum.fail, facts.sum.att)
	}
	return tr.spans()
}

// With one synchronous client every backend call lies inside the op that
// made it.
func TestChildSpansInsideRoot(t *testing.T) {
	spans := tracedSpans(t, "rpc_point")
	roots := make(map[uint64]span)
	for _, s := range spans {
		if s.layer == spanRoot {
			roots[s.id] = s
		}
	}
	children := 0
	for _, s := range spans {
		if s.layer == spanRoot {
			continue
		}
		children++
		r, ok := roots[s.id]
		if !ok || s.start < r.start || s.end > r.end {
			t.Fatalf("child %+v not inside its root %+v", s, r)
		}
	}
	if children == 0 || len(roots) == 0 {
		t.Fatalf("recorded %d roots and %d children", len(roots), children)
	}
}

// Replicated puts leave calls running after they return; clipped to their
// root they still may not make any self time negative.
func TestSelfTimeNotNegative(t *testing.T) {
	byKind := analyze(tracedSpans(t, "kv_replicated"))
	for _, k := range []int{kGet, kPut} {
		st := byKind[k]
		if len(st.selfNs) == 0 {
			t.Fatalf("no %s roots recorded", kindNames[k])
		}
		for i, self := range st.selfNs {
			if self < 0 || self > st.durNs[i] {
				t.Fatalf("%s root %d: self %v ns of %v ns", kindNames[k], i, self, st.durNs[i])
			}
		}
	}
}
