package mem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestForkSharesPagesUntilWrite(t *testing.T) {
	parent := NewSpace(0)
	base, err := parent.Map(4 * PageSize)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 2*PageSize)
	if err := parent.WriteAt(nil, base, payload); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}

	child := parent.Fork()
	if !parent.Sealed() {
		t.Fatal("Fork must seal the template")
	}
	if child.SharedBytes() != 4*PageSize {
		t.Fatalf("SharedBytes = %d, want %d", child.SharedBytes(), 4*PageSize)
	}

	// The clone sees the template's snapshot.
	got := make([]byte, len(payload))
	if err := child.ReadAt(nil, base, got); err != nil {
		t.Fatalf("child ReadAt: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("child does not see template pages")
	}
	if child.CowBreaks() != 0 {
		t.Fatalf("reads must not break COW, breaks = %d", child.CowBreaks())
	}

	// A child write privatises the region and leaves the template intact.
	if err := child.WriteAt(nil, base, []byte{0xCD}); err != nil {
		t.Fatalf("child WriteAt: %v", err)
	}
	if child.CowBreaks() != 1 {
		t.Fatalf("CowBreaks = %d, want 1", child.CowBreaks())
	}
	if child.SharedBytes() != 0 {
		t.Fatalf("SharedBytes after break = %d, want 0", child.SharedBytes())
	}
	tpl := make([]byte, 1)
	if err := parent.ReadAt(nil, base, tpl); err != nil {
		t.Fatalf("parent ReadAt: %v", err)
	}
	if tpl[0] != 0xAB {
		t.Fatalf("template mutated by child write: %#x", tpl[0])
	}
}

func TestForkClonesAreIndependent(t *testing.T) {
	parent := NewSpace(0)
	base, err := parent.Map(PageSize)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := parent.WriteAt(nil, base, []byte{1}); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}

	a := parent.Fork()
	b := parent.Fork()
	if err := a.WriteAt(nil, base, []byte{2}); err != nil {
		t.Fatalf("a WriteAt: %v", err)
	}
	var got [1]byte
	if err := b.ReadAt(nil, base, got[:]); err != nil {
		t.Fatalf("b ReadAt: %v", err)
	}
	if got[0] != 1 {
		t.Fatalf("sibling clone sees other clone's write: %d", got[0])
	}
}

func TestSealedSpaceRejectsMutation(t *testing.T) {
	s := NewSpace(0)
	base, err := s.Map(PageSize)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	s.Seal()

	if err := s.WriteAt(nil, base, []byte{1}); !errors.Is(err, ErrSealed) {
		t.Fatalf("WriteAt on sealed = %v, want ErrSealed", err)
	}
	if _, err := s.Slice(nil, base, 8, true); !errors.Is(err, ErrSealed) {
		t.Fatalf("writable Slice on sealed = %v, want ErrSealed", err)
	}
	if _, err := s.Map(PageSize); !errors.Is(err, ErrSealed) {
		t.Fatalf("Map on sealed = %v, want ErrSealed", err)
	}
	if err := s.Unmap(base); !errors.Is(err, ErrSealed) {
		t.Fatalf("Unmap on sealed = %v, want ErrSealed", err)
	}
	if err := s.SetKey(base, PageSize, 3); !errors.Is(err, ErrSealed) {
		t.Fatalf("SetKey on sealed = %v, want ErrSealed", err)
	}
	// Reads of present pages stay legal.
	if _, err := s.Slice(nil, base, 8, false); err != nil {
		t.Fatalf("read Slice on sealed: %v", err)
	}
}

func TestForkKeysAreIndependent(t *testing.T) {
	parent := NewSpace(0)
	base, err := parent.Map(PageSize)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := parent.SetKey(base, PageSize, 5); err != nil {
		t.Fatalf("SetKey: %v", err)
	}
	child := parent.Fork()
	if err := child.SetKey(base, PageSize, 9); err != nil {
		t.Fatalf("child SetKey: %v", err)
	}
	pk, err := parent.KeyAt(base)
	if err != nil {
		t.Fatalf("parent KeyAt: %v", err)
	}
	ck, err := child.KeyAt(base)
	if err != nil {
		t.Fatalf("child KeyAt: %v", err)
	}
	if pk != 5 || ck != 9 {
		t.Fatalf("keys parent=%d child=%d, want 5 and 9", pk, ck)
	}
}

func TestForkLazyRegionFaultBreaksCOW(t *testing.T) {
	parent := NewSpace(0)
	fill := func(addr uint64, data []byte) error {
		for i := range data {
			data[i] = 0x42
		}
		return nil
	}
	base, err := parent.MapLazy(2*PageSize, fill)
	if err != nil {
		t.Fatalf("MapLazy: %v", err)
	}
	// Fault the first page in before the snapshot; leave the second cold.
	var one [1]byte
	if err := parent.ReadAt(nil, base, one[:]); err != nil {
		t.Fatalf("parent fault: %v", err)
	}

	child := parent.Fork()
	// Reading the already-present page shares the template's copy.
	if err := child.ReadAt(nil, base, one[:]); err != nil {
		t.Fatalf("child read present: %v", err)
	}
	if child.CowBreaks() != 0 {
		t.Fatalf("present-page read broke COW: %d", child.CowBreaks())
	}
	// Faulting the cold page must privatise the region first so the fill
	// never touches the template's shared array.
	if err := child.ReadAt(nil, base+PageSize, one[:]); err != nil {
		t.Fatalf("child fault: %v", err)
	}
	if one[0] != 0x42 {
		t.Fatalf("fault fill = %#x, want 0x42", one[0])
	}
	if child.CowBreaks() != 1 {
		t.Fatalf("CowBreaks = %d, want 1", child.CowBreaks())
	}
	// The sealed template refuses to fault its own cold page.
	if err := parent.ReadAt(nil, base+PageSize, one[:]); !errors.Is(err, ErrSealed) {
		t.Fatalf("sealed fault fill = %v, want ErrSealed", err)
	}
}

func TestForkChildCanMapBeyondTemplate(t *testing.T) {
	parent := NewSpace(0)
	tbase, err := parent.Map(PageSize)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	child := parent.Fork()
	cbase, err := child.Map(4 * PageSize)
	if err != nil {
		t.Fatalf("child Map: %v", err)
	}
	if cbase <= tbase {
		t.Fatalf("child mapping %#x overlaps inherited layout at %#x", cbase, tbase)
	}
	if err := child.WriteAt(nil, cbase, []byte{7}); err != nil {
		t.Fatalf("child WriteAt own region: %v", err)
	}
	if child.CowBreaks() != 0 {
		t.Fatalf("write to own region broke COW: %d", child.CowBreaks())
	}
}

func TestForkConcurrentClones(t *testing.T) {
	parent := NewSpace(0)
	base, err := parent.Map(8 * PageSize)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := parent.WriteAt(nil, base, bytes.Repeat([]byte{0x11}, 8*PageSize)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := parent.Fork()
			buf := make([]byte, PageSize)
			if err := c.ReadAt(nil, base, buf); err != nil {
				t.Errorf("clone read: %v", err)
				return
			}
			if err := c.WriteAt(nil, base+uint64(i)*PageSize, []byte{byte(i)}); err != nil {
				t.Errorf("clone write: %v", err)
			}
		}(i)
	}
	wg.Wait()
	var got [1]byte
	if err := parent.ReadAt(nil, base, got[:]); err != nil || got[0] != 0x11 {
		t.Fatalf("template mutated: byte=%#x err=%v", got[0], err)
	}
}

// TestForkUnbackedRegion: a region the template reserved but never
// touched has no pages to share. Each clone backs its own zeros on first
// touch — which is not a copy-on-write break — and the template still
// reads zeros afterwards.
func TestForkUnbackedRegion(t *testing.T) {
	parent := NewSpace(0)
	base, err := parent.Map(2 * PageSize)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	a, b := parent.Fork(), parent.Fork()
	if a.SharedBytes() != 0 {
		t.Fatalf("SharedBytes = %d for an unbacked region, want 0", a.SharedBytes())
	}
	if a.Mapped() != 2*PageSize {
		t.Fatalf("clone Mapped = %d, want the inherited reservation %d", a.Mapped(), 2*PageSize)
	}
	if err := a.WriteAt(nil, base, []byte{0xA1}); err != nil {
		t.Fatalf("a WriteAt: %v", err)
	}
	if err := b.WriteAt(nil, base, []byte{0xB2}); err != nil {
		t.Fatalf("b WriteAt: %v", err)
	}
	for _, c := range []struct {
		name  string
		space *Space
		want  byte
	}{{"a", a, 0xA1}, {"b", b, 0xB2}, {"template", parent, 0}} {
		var got [1]byte
		if err := c.space.ReadAt(nil, base, got[:]); err != nil {
			t.Fatalf("%s ReadAt: %v", c.name, err)
		}
		if got[0] != c.want {
			t.Fatalf("%s reads %#x, want %#x", c.name, got[0], c.want)
		}
		if n := c.space.CowBreaks(); n != 0 {
			t.Fatalf("%s CowBreaks = %d, want 0: backing is not a COW break", c.name, n)
		}
	}
	// A clone cut after the template backed its zeros shares them and
	// breaks COW on write like any backed region.
	late := parent.Fork()
	if late.SharedBytes() != 2*PageSize {
		t.Fatalf("late clone SharedBytes = %d, want %d", late.SharedBytes(), 2*PageSize)
	}
	if err := late.WriteAt(nil, base, []byte{0xC3}); err != nil {
		t.Fatalf("late WriteAt: %v", err)
	}
	var got [1]byte
	if err := parent.ReadAt(nil, base, got[:]); err != nil || got[0] != 0 {
		t.Fatalf("template byte = %#x, err = %v after late clone write; want 0", got[0], err)
	}
}

// TestSealedUnbackedRegion: sealing a template with a region nobody
// touched changes nothing about the seal — writes and writable views are
// refused, reads see zeros.
func TestSealedUnbackedRegion(t *testing.T) {
	s := NewSpace(0)
	base, err := s.Map(PageSize)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	s.Seal()
	if err := s.WriteAt(nil, base, []byte{1}); !errors.Is(err, ErrSealed) {
		t.Fatalf("WriteAt on sealed unbacked region = %v, want ErrSealed", err)
	}
	if _, err := s.Slice(nil, base, 8, true); !errors.Is(err, ErrSealed) {
		t.Fatalf("writable Slice on sealed unbacked region = %v, want ErrSealed", err)
	}
	if backed(s, base) {
		t.Fatal("a refused write backed the region")
	}
	v, err := s.Slice(nil, base, 8, false)
	if err != nil {
		t.Fatalf("read Slice on sealed unbacked region: %v", err)
	}
	if !bytes.Equal(v, make([]byte, 8)) {
		t.Fatal("sealed unbacked region does not read as zeros")
	}
}

// TestForkUnbackedLazyRegion: a lazy region with no page ever faulted is
// unbacked in the template; the clone's first fault backs and fills its
// own array without a COW break.
func TestForkUnbackedLazyRegion(t *testing.T) {
	parent := NewSpace(0)
	base, err := parent.MapLazy(2*PageSize, func(addr uint64, data []byte) error {
		for i := range data {
			data[i] = 0x42
		}
		return nil
	})
	if err != nil {
		t.Fatalf("MapLazy: %v", err)
	}
	child := parent.Fork()
	var one [1]byte
	if err := child.ReadAt(nil, base+PageSize, one[:]); err != nil {
		t.Fatalf("child fault: %v", err)
	}
	if one[0] != 0x42 {
		t.Fatalf("fault fill = %#x, want 0x42", one[0])
	}
	if child.CowBreaks() != 0 || child.Faults() != 1 {
		t.Fatalf("CowBreaks = %d, Faults = %d; want 0 and 1", child.CowBreaks(), child.Faults())
	}
	if err := parent.ReadAt(nil, base, one[:]); !errors.Is(err, ErrSealed) {
		t.Fatalf("sealed template fault fill = %v, want ErrSealed", err)
	}
}
