package mem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// allowKeys is a test Access allowing only the listed keys.
type allowKeys struct {
	read  map[uint8]bool
	write map[uint8]bool
}

func (a allowKeys) Allows(key uint8, write bool) bool {
	if write {
		return a.write[key]
	}
	return a.read[key]
}

func TestMapReadWrite(t *testing.T) {
	s := NewSpace(0)
	base, err := s.Map(3 * PageSize)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	msg := []byte("hello, single address space")
	if err := s.WriteAt(nil, base+100, msg); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(msg))
	if err := s.ReadAt(nil, base+100, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip mismatch: %q != %q", got, msg)
	}
}

func TestMapRoundsUpToPage(t *testing.T) {
	s := NewSpace(0)
	base, err := s.Map(1)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	// The whole page must be addressable.
	if err := s.WriteAt(nil, base+PageSize-1, []byte{0xFF}); err != nil {
		t.Fatalf("WriteAt at page end: %v", err)
	}
	if s.Mapped() != PageSize {
		t.Fatalf("Mapped = %d, want %d", s.Mapped(), PageSize)
	}
}

func TestUnmappedAccessFails(t *testing.T) {
	s := NewSpace(0)
	if err := s.ReadAt(nil, 0xdead000, make([]byte, 8)); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("ReadAt unmapped: err = %v, want ErrBadAddress", err)
	}
	if err := s.WriteAt(nil, 0xdead000, make([]byte, 8)); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("WriteAt unmapped: err = %v, want ErrBadAddress", err)
	}
}

func TestAccessCrossingRegionEndFails(t *testing.T) {
	s := NewSpace(0)
	base, err := s.Map(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	err = s.ReadAt(nil, base+PageSize-4, make([]byte, 8))
	if !errors.Is(err, ErrBadAddress) {
		t.Fatalf("read across region end: err = %v, want ErrBadAddress", err)
	}
}

func TestMapAtOverlapRejected(t *testing.T) {
	s := NewSpace(0)
	if err := s.MapAt(0x10000, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.MapAt(0x10000+PageSize, PageSize); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlapping MapAt: err = %v, want ErrOverlap", err)
	}
	if err := s.MapAt(0x10000-PageSize, 2*PageSize); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlapping MapAt (tail): err = %v, want ErrOverlap", err)
	}
	// Adjacent is fine.
	if err := s.MapAt(0x10000+2*PageSize, PageSize); err != nil {
		t.Fatalf("adjacent MapAt: %v", err)
	}
}

func TestMapAtUnaligned(t *testing.T) {
	s := NewSpace(0)
	if err := s.MapAt(0x10001, PageSize); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned MapAt: err = %v, want ErrUnaligned", err)
	}
}

func TestUnmap(t *testing.T) {
	s := NewSpace(0)
	base, err := s.Map(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Unmap(base); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if err := s.ReadAt(nil, base, make([]byte, 1)); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("read after unmap: err = %v, want ErrBadAddress", err)
	}
	if s.Mapped() != 0 {
		t.Fatalf("Mapped after unmap = %d, want 0", s.Mapped())
	}
	if err := s.Unmap(base); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("double unmap: err = %v, want ErrBadAddress", err)
	}
}

// TestMemoryLimit: the limit bounds what is mapped, not what is backed, so
// an over-limit Map fails with nothing ever touched.
func TestMemoryLimit(t *testing.T) {
	s := NewSpace(2 * PageSize)
	if _, err := s.Map(PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(2 * PageSize); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("over-limit Map: err = %v, want ErrNoMemory", err)
	}
	if _, err := s.MapLazy(2*PageSize, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("over-limit MapLazy: err = %v, want ErrNoMemory", err)
	}
	if s.Mapped() != PageSize {
		t.Fatalf("Mapped = %d after rejected maps, want %d", s.Mapped(), PageSize)
	}
	if _, err := s.Map(PageSize); err != nil {
		t.Fatalf("Map within limit after failure: %v", err)
	}
}

func TestProtectionKeys(t *testing.T) {
	s := NewSpace(0)
	base, err := s.Map(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Tag the middle two pages with key 5.
	if err := s.SetKey(base+PageSize, 2*PageSize, 5); err != nil {
		t.Fatalf("SetKey: %v", err)
	}
	k, err := s.KeyAt(base + PageSize)
	if err != nil || k != 5 {
		t.Fatalf("KeyAt = %d, %v; want 5", k, err)
	}
	if k, _ := s.KeyAt(base); k != 0 {
		t.Fatalf("untagged page key = %d, want 0", k)
	}

	userOnly := allowKeys{
		read:  map[uint8]bool{0: true},
		write: map[uint8]bool{0: true},
	}
	// Key-0 page is accessible.
	if err := s.WriteAt(userOnly, base, []byte{1}); err != nil {
		t.Fatalf("write to allowed page: %v", err)
	}
	// Key-5 page is not.
	if err := s.WriteAt(userOnly, base+PageSize, []byte{1}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("write to denied page: err = %v, want ErrAccessDenied", err)
	}
	if err := s.ReadAt(userOnly, base+PageSize, make([]byte, 1)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("read from denied page: err = %v, want ErrAccessDenied", err)
	}
	// A span covering both keys is denied as a whole.
	if err := s.WriteAt(userOnly, base+PageSize-2, make([]byte, 4)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("write spanning denied page: err = %v, want ErrAccessDenied", err)
	}
}

func TestReadOnlyKeyPermits(t *testing.T) {
	s := NewSpace(0)
	base, err := s.Map(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetKey(base, PageSize, 3); err != nil {
		t.Fatal(err)
	}
	ro := allowKeys{read: map[uint8]bool{3: true}, write: map[uint8]bool{}}
	if err := s.ReadAt(ro, base, make([]byte, 8)); err != nil {
		t.Fatalf("read with read-only key: %v", err)
	}
	if err := s.WriteAt(ro, base, make([]byte, 8)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("write with read-only key: err = %v, want ErrAccessDenied", err)
	}
}

func TestSliceZeroCopy(t *testing.T) {
	s := NewSpace(0)
	base, err := s.Map(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Slice(nil, base+16, 64, true)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	copy(v, "reference passing")
	got := make([]byte, 17)
	if err := s.ReadAt(nil, base+16, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "reference passing" {
		t.Fatalf("slice write not visible via ReadAt: %q", got)
	}
	// The view must alias, not copy: writes via ReadAt path visible in v.
	if err := s.WriteAt(nil, base+16, []byte("R")); err != nil {
		t.Fatal(err)
	}
	if v[0] != 'R' {
		t.Fatal("Slice returned a copy, want an aliasing view")
	}
}

func TestLazyRegionFaults(t *testing.T) {
	s := NewSpace(0)
	var faulted []uint64
	base, err := s.MapLazy(4*PageSize, func(addr uint64, data []byte) error {
		faulted = append(faulted, addr)
		for i := range data {
			data[i] = byte(addr / PageSize) // fill pattern identifies page
		}
		return nil
	})
	if err != nil {
		t.Fatalf("MapLazy: %v", err)
	}
	if s.Faults() != 0 {
		t.Fatalf("faults before access = %d, want 0", s.Faults())
	}
	buf := make([]byte, 8)
	if err := s.ReadAt(nil, base+2*PageSize+5, buf); err != nil {
		t.Fatalf("ReadAt lazy: %v", err)
	}
	if len(faulted) != 1 || faulted[0] != base+2*PageSize {
		t.Fatalf("faulted pages = %#x, want exactly [%#x]", faulted, base+2*PageSize)
	}
	want := byte((base + 2*PageSize) / PageSize)
	if buf[0] != want {
		t.Fatalf("fault fill: got %d want %d", buf[0], want)
	}
	// Second access: no new fault.
	if err := s.ReadAt(nil, base+2*PageSize, buf); err != nil {
		t.Fatal(err)
	}
	if len(faulted) != 1 {
		t.Fatalf("refault on present page: %d faults", len(faulted))
	}
	if s.Faults() != 1 {
		t.Fatalf("Faults() = %d, want 1", s.Faults())
	}
}

func TestLazyFaultHandlerError(t *testing.T) {
	s := NewSpace(0)
	base, err := s.MapLazy(PageSize, func(addr uint64, data []byte) error {
		return errors.New("backing store gone")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(nil, base, make([]byte, 1)); !errors.Is(err, ErrFaultUnfilled) {
		t.Fatalf("failed fault: err = %v, want ErrFaultUnfilled", err)
	}
}

func TestSetKeyUnaligned(t *testing.T) {
	s := NewSpace(0)
	base, _ := s.Map(PageSize)
	if err := s.SetKey(base+1, PageSize, 1); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned SetKey: err = %v, want ErrUnaligned", err)
	}
	if err := s.SetKey(base, PageSize-1, 1); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned length SetKey: err = %v, want ErrUnaligned", err)
	}
}

func TestSetKeySpansRegions(t *testing.T) {
	s := NewSpace(0)
	if err := s.MapAt(0x100000, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.MapAt(0x100000+PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.SetKey(0x100000, 2*PageSize, 7); err != nil {
		t.Fatalf("SetKey spanning adjacent regions: %v", err)
	}
	for _, a := range []uint64{0x100000, 0x100000 + PageSize} {
		if k, _ := s.KeyAt(a); k != 7 {
			t.Fatalf("KeyAt(%#x) = %d, want 7", a, k)
		}
	}
}

func TestConcurrentReadWriteDistinctRegions(t *testing.T) {
	s := NewSpace(0)
	const n = 8
	bases := make([]uint64, n)
	for i := range bases {
		b, err := s.Map(PageSize)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = b
	}
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			buf := []byte{byte(i)}
			for j := 0; j < 1000; j++ {
				if err := s.WriteAt(nil, bases[i], buf); err != nil {
					done <- err
					return
				}
				got := make([]byte, 1)
				if err := s.ReadAt(nil, bases[i], got); err != nil {
					done <- err
					return
				}
				if got[0] != byte(i) {
					done <- errors.New("cross-region interference")
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// backed reports whether the region holding addr has a backing array.
func backed(s *Space, addr uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.find(addr).data != nil
}

func TestMapReservesAndTouchBacks(t *testing.T) {
	s := NewSpace(0)
	base, err := s.Map(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mapped() != 4*PageSize {
		t.Fatalf("Mapped = %d, want %d: a reservation is accounted in full", s.Mapped(), 4*PageSize)
	}
	if err := s.SetKey(base, 4*PageSize, 3); err != nil {
		t.Fatal(err)
	}
	if k, err := s.KeyAt(base + 2*PageSize); err != nil || k != 3 {
		t.Fatalf("KeyAt = %d, %v; want 3", k, err)
	}
	if backed(s, base) {
		t.Fatal("Map, SetKey and KeyAt must not back the region")
	}
	// A denied access backs nothing either.
	noKeys := allowKeys{}
	if err := s.ReadAt(noKeys, base, make([]byte, 8)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("denied read: err = %v, want ErrAccessDenied", err)
	}
	if backed(s, base) {
		t.Fatal("a denied access backed the region")
	}
	// The first permitted access backs it, and it reads as zeros.
	got := bytes.Repeat([]byte{0xFF}, 2*PageSize)
	if err := s.ReadAt(nil, base+PageSize, got); err != nil {
		t.Fatalf("ReadAt of a reserved region: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 2*PageSize)) {
		t.Fatal("reserved region does not read as zeros")
	}
	if !backed(s, base) {
		t.Fatal("ReadAt did not back the region")
	}
	// A view taken before a write keeps aliasing the region afterwards.
	v, err := s.Slice(nil, base, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(nil, base, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v[0] != 'x' {
		t.Fatal("backing array was replaced under a live view")
	}
}

// TestSetKeyPartialThenWhole walks a region's keys through both
// representations: one key, per-page keys after a partial bind, one key
// again after a bind over the whole region.
func TestSetKeyPartialThenWhole(t *testing.T) {
	s := NewSpace(0)
	base, err := s.Map(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetKey(base, 3*PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.SetKey(base+PageSize, PageSize, 7); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint8{2, 7, 2} {
		if k, _ := s.KeyAt(base + uint64(i)*PageSize); k != want {
			t.Fatalf("page %d key = %d, want %d", i, k, want)
		}
	}
	only2 := allowKeys{read: map[uint8]bool{2: true}, write: map[uint8]bool{2: true}}
	if err := s.WriteAt(only2, base, []byte{1}); err != nil {
		t.Fatalf("write to a key-2 page: %v", err)
	}
	if err := s.WriteAt(only2, base+PageSize-1, []byte{1, 2}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("write crossing into the key-7 page: err = %v, want ErrAccessDenied", err)
	}
	if err := s.SetKey(base, 3*PageSize, 9); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if k, _ := s.KeyAt(base + i*PageSize); k != 9 {
			t.Fatalf("page %d key = %d after whole-region bind, want 9", i, k)
		}
	}
	if err := s.WriteAt(only2, base, []byte{1}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("write after rebind to key 9: err = %v, want ErrAccessDenied", err)
	}
}

// TestLazyFaultConcurrentReaders: N goroutines read one never-faulted
// lazy page at once. The handler must run once, the fault must be counted
// once, and every reader must see the filled bytes.
func TestLazyFaultConcurrentReaders(t *testing.T) {
	const readers = 16
	s := NewSpace(0)
	var calls int // guarded by the Space's slow-path lock; -race checks that
	base, err := s.MapLazy(PageSize, func(addr uint64, page []byte) error {
		calls++
		for i := range page {
			page[i] = byte(i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	for i := range want {
		want[i] = byte(i)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got := make([]byte, PageSize)
			if err := s.ReadAt(nil, base, got); err != nil {
				t.Errorf("ReadAt: %v", err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Error("reader saw a partially filled page")
			}
		}()
	}
	close(start)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fault handler ran %d times, want 1", calls)
	}
	if s.Faults() != 1 {
		t.Fatalf("Faults() = %d, want 1", s.Faults())
	}
}
