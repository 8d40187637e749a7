package mem

import (
	"math/bits"
	"sync"
)

// The recycled-array free list: byte arrays that outlive the one use
// they were made for — a guest instance's linear memory (internal/asvm),
// a spill file read back by the file transport (internal/xfer), the
// region backing of a released Space (Space.Release) — are
// parked here when released and taken again by the next user of the
// same size class, the way Wasmtime's pooling allocator hands a new
// instance a used linear-memory slot instead of a fresh mapping.
//
// An array's capacity is a power of two between MinParkedArray and
// MaxParkedArray; each class is a mutex-guarded stack of at most
// ParkPerClass arrays. A stack, not a sync.Pool: the GC never empties
// it, so a warm invoke loop takes the same arrays every round and its
// allocation count is the same at every GC phase. Requests above
// MaxParkedArray get an exact-size array that is never parked. Taken
// bytes are garbage — another user's data — so a taker zeroes or
// overwrites every byte it reads; Park's caller must hold no reference
// into the array afterwards.
const (
	minClassShift = 12
	maxClassShift = 22

	// MinParkedArray and MaxParkedArray bound the parked classes: 4 KiB
	// to 4 MiB.
	MinParkedArray = 1 << minClassShift
	MaxParkedArray = 1 << maxClassShift
	// ParkPerClass is how many arrays each class holds.
	ParkPerClass = 4
	// MaxParkedBytes is the worst case the free list keeps alive: every
	// class full, ParkPerClass × (4 KiB + 8 KiB + … + 4 MiB) ≈ 32 MiB.
	MaxParkedBytes = ParkPerClass * (2*MaxParkedArray - MinParkedArray)
)

var parked [maxClassShift - minClassShift + 1]struct {
	mu   sync.Mutex
	bufs [][]byte
}

// classOf returns the class index of an n-byte request and whether it
// is parkable at all.
func classOf(n int) (int, bool) {
	switch {
	case n > MaxParkedArray:
		return 0, false
	case n <= MinParkedArray:
		return 0, true
	}
	return bits.Len(uint(n-1)) - minClassShift, true
}

// Take returns an n-byte slice whose capacity is its size class,
// reusing a parked array when the class has one. Its contents are
// unspecified.
func Take(n int) []byte {
	c, ok := classOf(n)
	if !ok {
		return make([]byte, n)
	}
	cl := &parked[c]
	cl.mu.Lock()
	if k := len(cl.bufs); k > 0 {
		b := cl.bufs[k-1]
		cl.bufs[k-1] = nil
		cl.bufs = cl.bufs[:k-1]
		cl.mu.Unlock()
		return b[:n]
	}
	cl.mu.Unlock()
	return make([]byte, n, 1<<(c+minClassShift))
}

// Park returns b's array to the free list, keeping it when b came from
// Take (its capacity is exactly a class size) and the class has room;
// any other array is left to the GC.
func Park(b []byte) {
	n := cap(b)
	c, ok := classOf(n)
	if !ok || n != 1<<(c+minClassShift) {
		return
	}
	cl := &parked[c]
	cl.mu.Lock()
	if len(cl.bufs) < ParkPerClass {
		if cl.bufs == nil {
			cl.bufs = make([][]byte, 0, ParkPerClass)
		}
		cl.bufs = append(cl.bufs, b[:n])
	}
	cl.mu.Unlock()
}
