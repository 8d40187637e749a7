package mem

import (
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
