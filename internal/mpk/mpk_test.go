package mpk

import (
	"errors"
	"testing"
	"testing/quick"

	"alloystack/internal/mem"
)

func TestPKRURights(t *testing.T) {
	p := AllowAll
	for k := uint8(0); k < MaxKeys; k++ {
		if !p.Allows(k, false) || !p.Allows(k, true) {
			t.Fatalf("AllowAll denies key %d", k)
		}
	}
	p = p.WithRights(3, true, false) // read-only key 3
	if !p.Allows(3, false) {
		t.Fatal("read-only key denies read")
	}
	if p.Allows(3, true) {
		t.Fatal("read-only key allows write")
	}
	p = p.WithRights(3, false, false) // no access
	if p.Allows(3, false) || p.Allows(3, true) {
		t.Fatal("denied key still accessible")
	}
	p = p.WithRights(3, true, true) // restore
	if !p.Allows(3, true) {
		t.Fatal("restored key still denied")
	}
}

func TestDenyAllButDefault(t *testing.T) {
	p := DenyAllButDefault()
	if !p.Allows(0, true) {
		t.Fatal("default key must stay accessible")
	}
	for k := uint8(1); k < MaxKeys; k++ {
		if p.Allows(k, false) {
			t.Fatalf("key %d readable under DenyAllButDefault", k)
		}
	}
}

// Property: WithRights affects exactly the targeted key.
func TestPKRUWithRightsIsolated(t *testing.T) {
	f := func(start uint32, keyRaw uint8, read, write bool) bool {
		key := Key(keyRaw % MaxKeys)
		p := PKRU(start)
		q := p.WithRights(key, read, write)
		if q.Allows(uint8(key), false) != read {
			return false
		}
		if write && read && !q.Allows(uint8(key), true) {
			return false
		}
		if !write && q.Allows(uint8(key), true) {
			return false
		}
		for k := uint8(0); k < MaxKeys; k++ {
			if k == uint8(key) {
				continue
			}
			if q.Allows(k, false) != p.Allows(k, false) ||
				q.Allows(k, true) != p.Allows(k, true) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContextRegister(t *testing.T) {
	c := newContext(DenyAllButDefault())
	if c.Allows(uint8(KeySystem), false) {
		t.Fatal("fresh user context can read system pages")
	}
	if c.Writes() != 0 {
		t.Fatalf("fresh context write count = %d", c.Writes())
	}
	c.WritePKRU(AllowAll)
	if !c.Allows(uint8(KeySystem), true) {
		t.Fatal("elevated context denied system write")
	}
	if c.Writes() != 1 {
		t.Fatalf("write count = %d, want 1", c.Writes())
	}
	if c.ReadPKRU() != AllowAll {
		t.Fatalf("ReadPKRU = %v, want AllowAll", c.ReadPKRU())
	}
}

func TestDomainKeyAllocation(t *testing.T) {
	d := NewDomain(mem.NewSpace(0))
	if got := d.AllocatedKeys(); got != 2 {
		t.Fatalf("fresh domain has %d keys allocated, want 2 (default+system)", got)
	}
	seen := map[Key]bool{KeyDefault: true, KeySystem: true}
	var keys []Key
	for {
		k, err := d.AllocKey()
		if err != nil {
			if !errors.Is(err, ErrNoKeys) {
				t.Fatalf("AllocKey: %v", err)
			}
			break
		}
		if seen[k] {
			t.Fatalf("key %d allocated twice", k)
		}
		seen[k] = true
		keys = append(keys, k)
	}
	if len(keys) != MaxKeys-2 {
		t.Fatalf("allocated %d dynamic keys, want %d", len(keys), MaxKeys-2)
	}
	if err := d.FreeKey(keys[0]); err != nil {
		t.Fatalf("FreeKey: %v", err)
	}
	k, err := d.AllocKey()
	if err != nil {
		t.Fatalf("AllocKey after free: %v", err)
	}
	if k != keys[0] {
		t.Fatalf("reallocated key = %d, want %d", k, keys[0])
	}
}

func TestFreeReservedKey(t *testing.T) {
	d := NewDomain(mem.NewSpace(0))
	if err := d.FreeKey(KeyDefault); !errors.Is(err, ErrKeyReserved) {
		t.Fatalf("free default key: err = %v, want ErrKeyReserved", err)
	}
	if err := d.FreeKey(KeySystem); !errors.Is(err, ErrKeyReserved) {
		t.Fatalf("free system key: err = %v, want ErrKeyReserved", err)
	}
	if err := d.FreeKey(9); !errors.Is(err, ErrKeyNotAlloc) {
		t.Fatalf("free unallocated key: err = %v, want ErrKeyNotAlloc", err)
	}
}

func TestPkeyMprotectUnallocatedKey(t *testing.T) {
	s := mem.NewSpace(0)
	d := NewDomain(s)
	base, err := s.Map(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PkeyMprotect(base, mem.PageSize, 7); !errors.Is(err, ErrKeyNotAlloc) {
		t.Fatalf("mprotect with unallocated key: err = %v, want ErrKeyNotAlloc", err)
	}
}

// TestEndToEndIsolation wires Domain + Context + mem.Space the way the
// visor does and verifies the paper's partition invariant: user context
// cannot touch the system partition, the system context can touch both,
// and a trampoline PKRU write flips capability.
func TestEndToEndIsolation(t *testing.T) {
	s := mem.NewSpace(0)
	d := NewDomain(s)

	sysBase, err := s.Map(4 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	usrBase, err := s.Map(4 * mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PkeyMprotect(sysBase, 4*mem.PageSize, KeySystem); err != nil {
		t.Fatal(err)
	}
	// User pages stay on the default key.

	userPKRU := AllowAll.WithRights(KeySystem, false, false)
	ctx := newContext(userPKRU)

	if err := s.WriteAt(ctx, usrBase, []byte("user data")); err != nil {
		t.Fatalf("user write to user partition: %v", err)
	}
	if err := s.WriteAt(ctx, sysBase, []byte("attack")); !errors.Is(err, mem.ErrAccessDenied) {
		t.Fatalf("user write to system partition: err = %v, want denied", err)
	}
	if err := s.ReadAt(ctx, sysBase, make([]byte, 8)); !errors.Is(err, mem.ErrAccessDenied) {
		t.Fatalf("user read of system partition: err = %v, want denied", err)
	}

	// Trampoline elevates, syscall body runs, trampoline drops.
	ctx.WritePKRU(AllowAll)
	if err := s.WriteAt(ctx, sysBase, []byte("libos state")); err != nil {
		t.Fatalf("system write after elevation: %v", err)
	}
	ctx.WritePKRU(userPKRU)
	if err := s.ReadAt(ctx, sysBase, make([]byte, 8)); !errors.Is(err, mem.ErrAccessDenied) {
		t.Fatalf("system read after dropping rights: err = %v, want denied", err)
	}
	if ctx.Writes() != 2 {
		t.Fatalf("crossing count = %d, want 2", ctx.Writes())
	}
}

// TestInterFunctionIsolation models the paper's optional per-function
// keys (AS-IFI): two functions with distinct keys cannot read each
// other's heap pages.
func TestInterFunctionIsolation(t *testing.T) {
	s := mem.NewSpace(0)
	d := NewDomain(s)
	kA, err := d.AllocKey()
	if err != nil {
		t.Fatal(err)
	}
	kB, err := d.AllocKey()
	if err != nil {
		t.Fatal(err)
	}
	heapA, _ := s.Map(2 * mem.PageSize)
	heapB, _ := s.Map(2 * mem.PageSize)
	if err := d.PkeyMprotect(heapA, 2*mem.PageSize, kA); err != nil {
		t.Fatal(err)
	}
	if err := d.PkeyMprotect(heapB, 2*mem.PageSize, kB); err != nil {
		t.Fatal(err)
	}

	ctxA := newContext(DenyAllButDefault().WithRights(kA, true, true))
	ctxB := newContext(DenyAllButDefault().WithRights(kB, true, true))

	if err := s.WriteAt(ctxA, heapA, []byte("A's secret")); err != nil {
		t.Fatalf("A writes own heap: %v", err)
	}
	if err := s.ReadAt(ctxB, heapA, make([]byte, 4)); !errors.Is(err, mem.ErrAccessDenied) {
		t.Fatalf("B reads A's heap: err = %v, want denied", err)
	}
	if err := s.WriteAt(ctxB, heapB, []byte("B's secret")); err != nil {
		t.Fatalf("B writes own heap: %v", err)
	}
	if err := s.WriteAt(ctxA, heapB, []byte("x")); !errors.Is(err, mem.ErrAccessDenied) {
		t.Fatalf("A writes B's heap: err = %v, want denied", err)
	}
}

func BenchmarkPKRUSwitch(b *testing.B) {
	c := newContext(AllowAll)
	user := DenyAllButDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.WritePKRU(AllowAll)
		c.WritePKRU(user)
	}
}

func BenchmarkCheckedAccess(b *testing.B) {
	s := mem.NewSpace(0)
	d := NewDomain(s)
	base, err := s.Map(16 * mem.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.PkeyMprotect(base, 16*mem.PageSize, KeySystem); err != nil {
		b.Fatal(err)
	}
	ctx := newContext(AllowAll)
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteAt(ctx, base, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// newContext is a fresh context holding initial.
func newContext(initial PKRU) *Context {
	c := new(Context)
	c.Init(initial)
	return c
}
