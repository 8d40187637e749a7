package mem

import (
	"errors"
	"testing"
	"unsafe"
)

func TestTakeRoundsToItsClass(t *testing.T) {
	for _, c := range []struct{ n, cap int }{
		{0, MinParkedArray}, {1, MinParkedArray}, {MinParkedArray, MinParkedArray},
		{MinParkedArray + 1, 2 * MinParkedArray}, {5000, 8 << 10}, {MaxParkedArray, MaxParkedArray},
		{MaxParkedArray + 1, MaxParkedArray + 1}, // above the classes: exact, never parked
	} {
		b := Take(c.n)
		if len(b) != c.n || cap(b) != c.cap {
			t.Errorf("Take(%d): len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.cap)
		}
	}
	if MaxParkedBytes != ParkPerClass*(2*MaxParkedArray-MinParkedArray) || MaxParkedBytes > 32<<20 {
		t.Errorf("MaxParkedBytes = %d", MaxParkedBytes)
	}
}

// Each class is a bounded LIFO stack of exactly its own arrays.
func TestParkReusesBoundedPerClass(t *testing.T) {
	const n = 3 << 10 // class 0
	for range ParkPerClass {
		Take(n)
	}
	addr := func(b []byte) *byte { return unsafe.SliceData(b) }
	arrays := make([][]byte, ParkPerClass+1)
	for i := range arrays {
		arrays[i] = Take(n)
	}
	Park(make([]byte, n))          // not from Take: left to the GC
	Park(arrays[0][:10])           // a resliced view parks its whole array
	for _, b := range arrays[1:] { // the last one finds the class full
		Park(b)
	}
	for i := ParkPerClass - 1; i >= 1; i-- {
		if got := Take(n); addr(got) != addr(arrays[i]) || cap(got) != MinParkedArray {
			t.Fatalf("Take returned another array than the %d-th parked", i)
		}
	}
	if got := Take(1); addr(got) != addr(arrays[0]) {
		t.Fatal("the resliced view's array was not parked")
	}
	if got := Take(n); addr(got) == addr(arrays[ParkPerClass]) {
		t.Fatal("a full class took one more array")
	}
	Park(Take(MaxParkedArray + 1)) // never parked, so never handed out
}

// drainClass empties the free-list class of n-byte arrays and returns
// what it held, so the next Take of the class shows what was parked
// since.
func drainClass(n int) [][]byte {
	c, _ := classOf(n)
	cl := &parked[c]
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := cl.bufs
	cl.bufs = nil
	return out
}

// filled maps an n-byte region in s and fills it with fill through a
// writable view, returning the view's first byte.
func filled(t *testing.T, s *Space, n uint64, fill byte) (base uint64, first *byte) {
	t.Helper()
	base, err := s.Map(n)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Slice(nil, base, n, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		v[i] = fill
	}
	return base, unsafe.SliceData(v)
}

// A released Space's arrays back the next Space's regions, and the
// next Space reads zeros, not the bytes the last one left.
func TestRecycledBackingReadsZeros(t *testing.T) {
	const n = 100 << 10 // the 128 KiB class
	drainClass(n)
	a := NewSpace(0)
	_, first := filled(t, a, n, 0xA5)
	a.Release()

	b := NewSpace(0)
	base, err := b.Map(n)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Slice(nil, base, n, false)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(v) != first {
		t.Fatal("the second Space did not take the array the first parked")
	}
	for i, c := range v {
		if c != 0 {
			t.Fatalf("byte %d of a recycled backing reads %#x, want 0", i, c)
		}
	}
	if cap(v) != n {
		t.Fatalf("view capacity %d reaches past the region's %d bytes", cap(v), n)
	}
}

// A template's arrays are shared with its clones, and an escaped
// Space's views may be held by anyone: Release parks none of them, and
// an escaped Space backs exact-size arrays.
func TestRecycledNeverFromForkedOrEscaped(t *testing.T) {
	const n = 100 << 10
	parkedAfter := func(release func()) int {
		drainClass(n)
		release()
		return len(drainClass(n))
	}

	tmpl := NewSpace(0)
	tbase, _ := filled(t, tmpl, n, 1)
	clone := tmpl.Fork()
	if got := parkedAfter(clone.Release); got != 0 {
		t.Errorf("a clone parked %d arrays it shares with its template", got)
	}

	// A clone's copy-on-write break and its own regions are its to park.
	clone = tmpl.Fork()
	if err := clone.WriteAt(nil, tbase, []byte{2}); err != nil {
		t.Fatal(err)
	}
	filled(t, clone, n, 3)
	if got := parkedAfter(clone.Release); got != 2 {
		t.Errorf("a clone parked %d arrays, want its 2 private ones", got)
	}
	if got := parkedAfter(tmpl.Release); got != 0 {
		t.Errorf("a forked template parked %d arrays", got)
	}

	esc := NewSpace(0)
	esc.Escape()
	base, err := esc.Map(n)
	if err != nil {
		t.Fatal(err)
	}
	v, err := esc.Slice(nil, base, n, true)
	if err != nil {
		t.Fatal(err)
	}
	if cap(v) != n {
		t.Errorf("an escaped Space backed a %d-byte array for %d bytes", cap(v), n)
	}
	late := NewSpace(0)
	filled(t, late, n, 4)
	late.Escape() // after backing from the free list: still never parked
	if got := parkedAfter(func() { esc.Release(); late.Release() }); got != 0 {
		t.Errorf("escaped Spaces parked %d arrays", got)
	}
}

// After Release nothing reads, writes or backs the Space: a backed
// region, a reserved one and a new mapping all fail with ErrReleased.
func TestReleaseContractAccessesFail(t *testing.T) {
	s := NewSpace(0)
	base, _ := filled(t, s, 2*PageSize, 7)
	reserved, err := s.Map(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHeap(s, 1<<20)
	s.Release()
	s.Release() // idempotent
	for _, addr := range []uint64{base, reserved} {
		if _, err := s.Slice(nil, addr, 8, false); !errors.Is(err, ErrReleased) {
			t.Errorf("Slice %#x: %v, want ErrReleased", addr, err)
		}
		if _, err := s.Slice(nil, addr, 8, true); !errors.Is(err, ErrReleased) {
			t.Errorf("writable Slice %#x: %v, want ErrReleased", addr, err)
		}
		if err := s.ReadAt(nil, addr, make([]byte, 8)); !errors.Is(err, ErrReleased) {
			t.Errorf("ReadAt %#x: %v, want ErrReleased", addr, err)
		}
		if err := s.WriteAt(nil, addr, make([]byte, 8)); !errors.Is(err, ErrReleased) {
			t.Errorf("WriteAt %#x: %v, want ErrReleased", addr, err)
		}
	}
	if _, err := s.Map(PageSize); !errors.Is(err, ErrReleased) {
		t.Errorf("Map: %v, want ErrReleased", err)
	}
	if _, err := h.Alloc(64, 16); !errors.Is(err, ErrReleased) {
		t.Errorf("heap Alloc: %v, want ErrReleased", err)
	}
	if _, err := s.Fork().Slice(nil, base, 8, false); !errors.Is(err, ErrReleased) {
		t.Errorf("a released Space's fork: %v, want ErrReleased", err)
	}
}
