package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestHeap(size uint64) *Heap {
	return NewHeap(NewSpace(0), size)
}

func TestAllocFree(t *testing.T) {
	h := newTestHeap(1 << 20)
	a, err := h.Alloc(100, 0)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if _, err := h.Space().Slice(nil, a, 100, true); err != nil {
		t.Fatalf("allocation %#x not in mapped memory: %v", a, err)
	}
	if err := h.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := h.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocAlignment(t *testing.T) {
	h := newTestHeap(1 << 20)
	for _, align := range []uint64{16, 64, 256, 4096} {
		a, err := h.Alloc(24, align)
		if err != nil {
			t.Fatalf("Alloc align %d: %v", align, err)
		}
		if a%align != 0 {
			t.Fatalf("Alloc align %d returned %#x", align, a)
		}
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	h := newTestHeap(1 << 20)
	type span struct{ a, n uint64 }
	var spans []span
	for i := 0; i < 100; i++ {
		n := uint64(1 + i*7%500)
		a, err := h.Alloc(n, 0)
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		spans = append(spans, span{a, n})
	}
	for i, s1 := range spans {
		for j, s2 := range spans {
			if i == j {
				continue
			}
			if s1.a < s2.a+s2.n && s2.a < s1.a+s1.n {
				t.Fatalf("overlap: [%#x,%#x) and [%#x,%#x)", s1.a, s1.a+s1.n, s2.a, s2.a+s2.n)
			}
		}
	}
}

func TestFreeCoalescesAndReuses(t *testing.T) {
	h := newTestHeap(64 * 1024)
	// Fill the heap with equal blocks, free them all, then one big alloc
	// must succeed — proving coalescing works.
	var addrs []uint64
	for {
		a, err := h.Alloc(1024, 0)
		if err != nil {
			break
		}
		addrs = append(addrs, a)
	}
	if len(addrs) < 32 {
		t.Fatalf("expected many blocks, got %d", len(addrs))
	}
	// Free in shuffled order to exercise both merge directions.
	r := rand.New(rand.NewSource(7))
	r.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	for _, a := range addrs {
		if err := h.Free(a); err != nil {
			t.Fatalf("Free(%#x): %v", a, err)
		}
	}
	if err := h.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.FreeBlocks != 1 {
		t.Fatalf("free blocks after full free = %d, want 1", st.FreeBlocks)
	}
	if _, err := h.Alloc(h.Size()-minAlign, 0); err != nil {
		t.Fatalf("whole-heap alloc after coalescing: %v", err)
	}
}

func TestHeapExhaustion(t *testing.T) {
	h := newTestHeap(8 * 1024)
	if _, err := h.Alloc(16*1024, 0); !errors.Is(err, ErrHeapFull) {
		t.Fatalf("oversized alloc: err = %v, want ErrHeapFull", err)
	}
	a, err := h.Alloc(4*1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(6*1024, 0); !errors.Is(err, ErrHeapFull) {
		t.Fatalf("alloc beyond remainder: err = %v, want ErrHeapFull", err)
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(6*1024, 0); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestBadFree(t *testing.T) {
	h := newTestHeap(1 << 16)
	if err := h.Free(64); !errors.Is(err, ErrBadFree) {
		t.Fatalf("free of never-allocated: err = %v, want ErrBadFree", err)
	}
	a, _ := h.Alloc(64, 0)
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: err = %v, want ErrBadFree", err)
	}
}

func TestHeapStats(t *testing.T) {
	h := newTestHeap(1 << 16)
	a, _ := h.Alloc(100, 0)
	b, _ := h.Alloc(200, 0)
	st := h.Stats()
	if st.Allocs != 2 || st.Frees != 0 {
		t.Fatalf("stats = %+v, want 2 allocs 0 frees", st)
	}
	if st.InUse == 0 || st.Peak < st.InUse {
		t.Fatalf("stats accounting broken: %+v", st)
	}
	h.Free(a)
	h.Free(b)
	st = h.Stats()
	if st.InUse != 0 || st.Frees != 2 {
		t.Fatalf("after frees: %+v", st)
	}
	if st.Peak == 0 {
		t.Fatal("peak lost after free")
	}
}

func TestSizeOf(t *testing.T) {
	h := newTestHeap(1 << 16)
	a, _ := h.Alloc(100, 0)
	n, ok := h.SizeOf(a)
	if !ok || n < 100 {
		t.Fatalf("SizeOf = %d,%v; want >=100,true", n, ok)
	}
	if _, ok := h.SizeOf(a + 1); ok {
		t.Fatal("SizeOf of interior pointer should miss")
	}
}

// TestHeapPropertyRandomWorkload drives a random alloc/free sequence and
// asserts the allocator invariants hold throughout (property-based).
func TestHeapPropertyRandomWorkload(t *testing.T) {
	f := func(seed int64) bool {
		h := NewHeap(NewSpace(0), 1<<18)
		r := rand.New(rand.NewSource(seed))
		live := make(map[uint64]bool)
		var addrs []uint64
		for i := 0; i < 300; i++ {
			if len(addrs) == 0 || r.Intn(100) < 60 {
				size := uint64(1 + r.Intn(2000))
				align := uint64(1) << uint(r.Intn(8)) // 1..128
				a, err := h.Alloc(size, align)
				if err != nil {
					continue // heap may be full; that's fine
				}
				if live[a] {
					t.Logf("seed %d: address %#x returned twice", seed, a)
					return false
				}
				live[a] = true
				addrs = append(addrs, a)
			} else {
				i := r.Intn(len(addrs))
				a := addrs[i]
				addrs = append(addrs[:i], addrs[i+1:]...)
				delete(live, a)
				if err := h.Free(a); err != nil {
					t.Logf("seed %d: Free(%#x): %v", seed, a, err)
					return false
				}
			}
			if err := h.checkInvariants(); err != nil {
				t.Logf("seed %d: invariant: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapPropertyDataIntegrity writes a pattern into each allocation and
// verifies no allocation's bytes are disturbed by later activity.
func TestHeapPropertyDataIntegrity(t *testing.T) {
	f := func(seed int64) bool {
		space := NewSpace(0)
		h := NewHeap(space, 1<<18)
		r := rand.New(rand.NewSource(seed))
		type rec struct {
			addr, size uint64
			tag        byte
		}
		var recs []rec
		for i := 0; i < 120; i++ {
			size := uint64(1 + r.Intn(512))
			a, err := h.Alloc(size, 0)
			if err != nil {
				break
			}
			tag := byte(r.Intn(256))
			fill := make([]byte, size)
			for j := range fill {
				fill[j] = tag
			}
			if err := space.WriteAt(nil, a, fill); err != nil {
				return false
			}
			recs = append(recs, rec{a, size, tag})
			// Occasionally free a random earlier allocation.
			if len(recs) > 2 && r.Intn(3) == 0 {
				k := r.Intn(len(recs))
				h.Free(recs[k].addr)
				recs = append(recs[:k], recs[k+1:]...)
			}
		}
		for _, rc := range recs {
			got := make([]byte, rc.size)
			if err := space.ReadAt(nil, rc.addr, got); err != nil {
				return false
			}
			for _, b := range got {
				if b != rc.tag {
					t.Logf("seed %d: allocation at %#x corrupted", seed, rc.addr)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHeapAllocFree(b *testing.B) {
	h := NewHeap(NewSpace(0), 1<<24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := h.Alloc(256, 16)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHeapGrowsOnDemand pins the demand-backed contract: a heap maps
// nothing until asked, its first chunk is sized to the request and not to
// the limit, and a request of any size up to the limit comes back as one
// contiguous run usable as a zero-copy view.
func TestHeapGrowsOnDemand(t *testing.T) {
	space := NewSpace(0)
	h := NewHeap(space, 64<<20)
	if space.Mapped() != 0 || h.Size() != 0 {
		t.Fatalf("NewHeap mapped %d bytes (heap size %d), want 0", space.Mapped(), h.Size())
	}
	small, err := h.Alloc(64<<10, 0)
	if err != nil {
		t.Fatalf("64 KiB alloc: %v", err)
	}
	if got := space.Mapped(); got < 64<<10 || got >= 128<<10 {
		t.Fatalf("64 KiB alloc mapped %d bytes, want [64 KiB, 128 KiB)", got)
	}
	big, err := h.Alloc(10<<20, 0)
	if err != nil {
		t.Fatalf("10 MiB alloc: %v", err)
	}
	if _, err := space.Slice(nil, big, 10<<20, true); err != nil {
		t.Fatalf("grown allocation not contiguous: %v", err)
	}
	if err := h.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, a := range []uint64{small, big} {
		if err := h.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.checkInvariants(); err != nil {
		t.Fatalf("after freeing across chunks: %v", err)
	}
}

// TestHeapLimitBelowFirstChunk: a limit smaller than the smallest chunk
// the heap would otherwise map still yields a working heap of that size.
func TestHeapLimitBelowFirstChunk(t *testing.T) {
	space := NewSpace(0)
	h := NewHeap(space, 2*PageSize)
	a, err := h.Alloc(PageSize, 0)
	if err != nil {
		t.Fatalf("alloc within a 2-page limit: %v", err)
	}
	if h.Size() != 2*PageSize {
		t.Fatalf("heap size = %d, want the %d limit", h.Size(), 2*PageSize)
	}
	if _, err := h.Alloc(2*PageSize, 0); !errors.Is(err, ErrHeapFull) {
		t.Fatalf("alloc beyond the limit: err = %v, want ErrHeapFull", err)
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(2*PageSize-minAlign, 0); err != nil {
		t.Fatalf("whole-heap alloc after free: %v", err)
	}
	if err := h.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapGrowthBoundedByLimit(t *testing.T) {
	h := NewHeap(NewSpace(0), 8<<20)
	if _, err := h.Alloc(16<<20, 0); !errors.Is(err, ErrHeapFull) {
		t.Fatalf("over-limit alloc: err = %v", err)
	}
	// Within the limit growth works: a second 3 MiB allocation forces a
	// second chunk but stays under 8 MiB total.
	if _, err := h.Alloc(3<<20, 0); err != nil {
		t.Fatalf("first alloc: %v", err)
	}
	if _, err := h.Alloc(3<<20, 0); err != nil {
		t.Fatalf("growth within limit: %v", err)
	}
}

func TestHeapChunksNeverCoalesceAcrossGuard(t *testing.T) {
	h := NewHeap(NewSpace(0), 64<<20)
	// Force several growth steps, then free everything: the free list
	// must keep one block per chunk (guard pages prevent merging).
	var addrs []uint64
	for i := 0; i < 4; i++ {
		a, err := h.Alloc(5<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		if err := h.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.FreeBlocks < 2 {
		t.Fatalf("chunks merged across guard pages: %d free blocks", st.FreeBlocks)
	}
	if st.InUse != 0 {
		t.Fatalf("in use after full free: %d", st.InUse)
	}
}
