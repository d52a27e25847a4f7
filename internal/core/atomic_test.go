package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func atomicObj(t *testing.T, s *Store, size int) Addr {
	t.Helper()
	r, err := s.AllocOn(0, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(&r.Addr, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	return r.Addr
}

func readU64(t *testing.T, s *Store, a *Addr, off int) uint64 {
	t.Helper()
	size := s.ClassSize(int(a.Class()))
	buf := make([]byte, size)
	if _, err := s.Read(a, buf); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(buf[off:])
}

func TestStoreFetchAdd(t *testing.T) {
	s := testStore(t, nil)
	a := atomicObj(t, s, 64)

	prev, err := s.FetchAdd(&a, 0, 10)
	if err != nil || prev != 0 {
		t.Fatalf("first add: %d %v", prev, err)
	}
	prev, err = s.FetchAdd(&a, 0, -3)
	if err != nil || prev != 10 {
		t.Fatalf("second add: %d %v", prev, err)
	}
	if v := readU64(t, s, &a, 0); v != 7 {
		t.Fatalf("counter = %d, want 7", v)
	}

	// Adds at distinct offsets are independent words.
	if _, err := s.FetchAdd(&a, 8, 100); err != nil {
		t.Fatal(err)
	}
	if v := readU64(t, s, &a, 8); v != 100 {
		t.Fatalf("second word = %d", v)
	}
	if v := readU64(t, s, &a, 0); v != 7 {
		t.Fatalf("first word disturbed: %d", v)
	}

	// Offset overruns and negative offsets fail without writing.
	size := s.ClassSize(int(a.Class()))
	if _, err := s.FetchAdd(&a, size-4, 1); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("overrun: %v", err)
	}
	if _, err := s.FetchAdd(&a, -1, 1); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("negative offset: %v", err)
	}
}

func TestStoreCAS(t *testing.T) {
	s := testStore(t, nil)
	a := atomicObj(t, s, 64)

	old := make([]byte, 8)
	next := make([]byte, 8)
	binary.LittleEndian.PutUint64(next, 42)
	if err := s.CAS(&a, 0, old, next); err != nil {
		t.Fatalf("cas: %v", err)
	}
	// The compare now fails: bytes changed underneath the stale expectation.
	if err := s.CAS(&a, 0, old, next); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale cas: %v", err)
	}
	if v := readU64(t, s, &a, 0); v != 42 {
		t.Fatalf("counter = %d, want 42", v)
	}

	// Unequal old/new lengths: the larger span bounds the range check, and
	// a successful swap writes exactly len(new) bytes.
	if err := s.CAS(&a, 8, make([]byte, 4), []byte("abcdefgh")); err != nil {
		t.Fatalf("short-old cas: %v", err)
	}
	buf := make([]byte, 64)
	if _, err := s.Read(&a, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[8:16], []byte("abcdefgh")) {
		t.Fatalf("swapped bytes %q", buf[8:16])
	}

	size := s.ClassSize(int(a.Class()))
	if err := s.CAS(&a, size-4, old, next); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("overrun cas: %v", err)
	}
	// Empty new: the compare runs but nothing is published.
	if err := s.CAS(&a, 0, next[:0], nil); err != nil {
		t.Fatalf("empty cas: %v", err)
	}
}

func TestStoreCondWrite(t *testing.T) {
	s := testStore(t, nil)
	r, err := s.AllocOn(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	a := r.Addr

	// if-absent on a never-written object wins; the second attempt loses
	// and reports the version the winner installed.
	ver, err := s.CondWrite(&a, 0, true, []byte("winner"))
	if err != nil || ver == 0 {
		t.Fatalf("if-absent: ver=%d err=%v", ver, err)
	}
	obs, err := s.CondWrite(&a, 0, true, []byte("loser"))
	if !errors.Is(err, ErrConflict) || obs != ver {
		t.Fatalf("second if-absent: obs=%d err=%v", obs, err)
	}

	// if-version chains: each success returns the version to use next.
	ver2, err := s.CondWrite(&a, ver, false, []byte("update"))
	if err != nil || ver2 != ver+1 {
		t.Fatalf("if-version: ver=%d err=%v", ver2, err)
	}
	if obs, err := s.CondWrite(&a, ver, false, []byte("stale")); !errors.Is(err, ErrConflict) || obs != ver2 {
		t.Fatalf("stale if-version: obs=%d err=%v", obs, err)
	}

	// The payload is replaced whole: bytes past the value are zeroed.
	buf := make([]byte, 64)
	if _, err := s.Read(&a, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:6], []byte("update")) {
		t.Fatalf("payload %q", buf[:6])
	}
	for i := 6; i < 64; i++ {
		if buf[i] != 0 {
			t.Fatalf("byte %d not zero-filled: %d", i, buf[i])
		}
	}

	// Oversized values are rejected up front.
	size := s.ClassSize(int(a.Class()))
	if _, err := s.CondWrite(&a, ver2, false, make([]byte, size+1)); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("oversized: %v", err)
	}
}

func TestMutateSlotLiveness(t *testing.T) {
	s := testStore(t, nil)
	a := atomicObj(t, s, 64)

	// A freed object is unreachable by every mutation path.
	freed := a
	if err := s.Free(&freed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchAdd(&freed, 0, 1); err == nil {
		t.Fatal("fetchadd on freed object succeeded")
	}
	if err := s.CAS(&freed, 0, make([]byte, 8), make([]byte, 8)); err == nil {
		t.Fatal("cas on freed object succeeded")
	}

	// Conflict paths report the version they observed without bumping it.
	b := atomicObj(t, s, 64)
	_, errA := s.CondWrite(&b, 999, false, []byte("x"))
	obs1, _ := s.CondWrite(&b, 999, false, []byte("x"))
	obs2, _ := s.CondWrite(&b, 999, false, []byte("x"))
	if errA == nil || obs1 != obs2 {
		t.Fatalf("rejected writes moved the version: %d -> %d (%v)", obs1, obs2, errA)
	}
}

func TestScanClassErrors(t *testing.T) {
	s := testStore(t, nil)
	emit := func(Addr, []byte) bool { return true }
	if err := s.ScanClass(-1, nil, emit); !errors.Is(err, ErrNoClass) {
		t.Fatalf("negative class: %v", err)
	}
	if err := s.ScanClass(1<<20, nil, emit); !errors.Is(err, ErrNoClass) {
		t.Fatalf("huge class: %v", err)
	}
	// An empty (never-allocated) class scans cleanly to zero records.
	n := 0
	if err := s.ScanClass(0, nil, func(Addr, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty class emitted %d records", n)
	}
}

func TestAtomicsRequireDataBacking(t *testing.T) {
	s := testStore(t, func(c *Config) { c.DataBacked = false })
	r, err := s.AllocOn(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FetchAdd(&r.Addr, 0, 1); !errors.Is(err, ErrNoData) {
		t.Fatalf("fetchadd: %v", err)
	}
	if err := s.ScanClass(int(r.Addr.Class()), nil, func(Addr, []byte) bool { return true }); !errors.Is(err, ErrNoData) {
		t.Fatalf("scan: %v", err)
	}
}

// TestReadStaged: the zero-staging read used by the RPC server lands the
// raw slot in the caller's buffer and unpacks in place.
func TestReadStaged(t *testing.T) {
	s := testStore(t, nil)
	a := atomicObj(t, s, 64)
	if err := s.Write(&a, fill(64, 7)); err != nil {
		t.Fatal(err)
	}
	stride := s.Stride(int(a.Class()))
	buf := make([]byte, stride)
	n, err := s.ReadStaged(&a, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != s.ClassSize(int(a.Class())) {
		t.Fatalf("read %d bytes", n)
	}
	if !bytes.Equal(buf[:64], fill(64, 7)) {
		t.Fatalf("staged read mismatch")
	}
	if _, err := s.ReadStaged(&a, make([]byte, 8)); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short staged read: %v", err)
	}
}

// TestReadMatchesReadStaged: Read and ReadStaged share one body, so they
// return the same payload in both consistency modes, with the buffer-size
// rule of each (class size for Read, stride for ReadStaged).
func TestReadMatchesReadStaged(t *testing.T) {
	for _, mode := range []ConsistencyMode{ConsistencyVersions, ConsistencyChecksum} {
		s := testStore(t, func(c *Config) { c.Consistency = mode })
		a := atomicObj(t, s, 200)
		want := fill(200, 3)
		if err := s.Write(&a, want); err != nil {
			t.Fatal(err)
		}
		size, stride := s.ClassSize(int(a.Class())), s.Stride(int(a.Class()))
		plain := make([]byte, size)
		if n, err := s.Read(&a, plain); err != nil || n != size {
			t.Fatalf("mode %v: Read = %d, %v", mode, n, err)
		}
		staged := make([]byte, stride)
		if n, err := s.ReadStaged(&a, staged); err != nil || n != size {
			t.Fatalf("mode %v: ReadStaged = %d, %v", mode, n, err)
		}
		if !bytes.Equal(plain, staged[:size]) || !bytes.Equal(plain[:200], want) {
			t.Fatalf("mode %v: Read and ReadStaged disagree", mode)
		}
		if _, err := s.Read(&a, make([]byte, size-1)); !errors.Is(err, ErrShortBuffer) {
			t.Fatalf("mode %v: short Read: %v", mode, err)
		}
	}
}

// TestStoreIntrospection exercises the read-only accessors the benches and
// the compaction policy consume.
func TestStoreIntrospection(t *testing.T) {
	s := testStore(t, nil)
	a := atomicObj(t, s, 64)
	class := int(a.Class())

	if s.Stride(class) < s.ClassSize(class) {
		t.Fatal("stride smaller than payload")
	}
	if s.Tuner() != nil {
		t.Fatal("tuner attached by default")
	}
	if s.NIC() == nil || s.Space() == nil || s.Allocator() == nil {
		t.Fatal("nil store component")
	}
	if s.Workers() < 1 {
		t.Fatal("no workers")
	}
	f := s.Fragmentation(class)
	if f.GrantedBytes <= 0 {
		t.Fatalf("no granted bytes after alloc: %+v", f)
	}
	cfg := s.Config()
	if cfg.Consistency.String() == "" || cfg.Correction.String() == "" || a.String() == "" {
		t.Fatal("empty debug strings")
	}
}
