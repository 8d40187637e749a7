package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"

	"alloystack/internal/asstd"
	"alloystack/internal/blockdev"
	"alloystack/internal/fatfs"
	"alloystack/internal/mem"
	"alloystack/internal/netstack"
)

func testWFD(t *testing.T, mutate func(*Options)) *WFD {
	t.Helper()
	opts := Options{
		OnDemand:    true,
		CostScale:   0,
		BufHeapSize: 16 << 20,
		DiskImage:   blockdev.NewMemDisk(8 << 20),
	}
	if mutate != nil {
		mutate(&opts)
	}
	w, err := Instantiate(opts)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	t.Cleanup(w.Destroy)
	return w
}

func TestInstantiateOnDemandLoadsNothing(t *testing.T) {
	w := testWFD(t, nil)
	if got := len(w.NS.LoadedModules()); got != 0 {
		t.Fatalf("%d modules loaded at instantiation, want 0", got)
	}
}

func TestLoadAllMode(t *testing.T) {
	w := testWFD(t, func(o *Options) {
		o.OnDemand = false
		// Load-all instantiates every module, so the WFD needs the full
		// resource grant including a network hub.
		o.Hub = netstack.NewHub()
		o.IP = netstack.IP(10, 8, 0, 1)
	})
	if got := len(w.NS.LoadedModules()); got != 7 {
		t.Fatalf("load-all loaded %d modules, want 7", got)
	}
}

// TestReferencePassingBetweenFunctions is the paper's Figure 8 demo:
// func_a writes into an AsBuffer under a slot, func_b reads it by slot.
func TestReferencePassingBetweenFunctions(t *testing.T) {
	w := testWFD(t, nil)

	err := w.Run("func_a", func(env *asstd.Env) error {
		b, err := asstd.NewBuffer(env, "Conference", 32)
		if err != nil {
			return err
		}
		copy(b.Bytes(), "Euro 2025")
		return nil
	})
	if err != nil {
		t.Fatalf("func_a: %v", err)
	}

	var got string
	err = w.Run("func_b", func(env *asstd.Env) error {
		b, err := asstd.FromSlot(env, "Conference")
		if err != nil {
			return err
		}
		got = string(bytes.TrimRight(b.Bytes(), "\x00"))
		return b.Free()
	})
	if err != nil {
		t.Fatalf("func_b: %v", err)
	}
	if got != "Euro 2025" {
		t.Fatalf("received %q", got)
	}
}

// TestZeroCopySameBacking proves reference passing shares memory rather
// than copying: the receiver's view aliases the sender's.
func TestZeroCopySameBacking(t *testing.T) {
	w := testWFD(t, nil)
	var sender, receiver []byte
	w.Run("a", func(env *asstd.Env) error {
		b, err := asstd.NewBuffer(env, "s", 64)
		if err != nil {
			return err
		}
		sender = b.Bytes()
		return nil
	})
	w.Run("b", func(env *asstd.Env) error {
		b, err := asstd.FromSlot(env, "s")
		if err != nil {
			return err
		}
		receiver = b.Bytes()
		return nil
	})
	if &sender[0] != &receiver[0] {
		t.Fatal("sender and receiver views do not alias: a copy happened")
	}
}

func TestTypedBufferRoundTrip(t *testing.T) {
	w := testWFD(t, nil)
	want := demoData{Name: "Euro", Year: 2025}
	if err := w.Run("a", func(env *asstd.Env) error {
		return asstd.SendValue(env, "Conference", want)
	}); err != nil {
		t.Fatal(err)
	}
	var got demoData
	if err := w.Run("b", func(env *asstd.Env) error {
		var err error
		got, err = asstd.RecvValue[demoData](env, "Conference")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("typed round trip = %+v", got)
	}
}

// demoData mirrors the paper's MyFuncData (Figure 8).
type demoData struct {
	Name string
	Year uint64
}

// MarshalFaas implements asstd.Marshaler: name, NUL, 8-byte year.
func (d demoData) MarshalFaas() ([]byte, error) {
	out := append([]byte(d.Name), 0)
	var year [8]byte
	binary.LittleEndian.PutUint64(year[:], d.Year)
	return append(out, year[:]...), nil
}

// UnmarshalFaas implements asstd.Unmarshaler.
func (d *demoData) UnmarshalFaas(b []byte) error {
	i := bytes.IndexByte(b, 0)
	if i < 0 || len(b) < i+9 {
		return errors.New("bad demoData encoding")
	}
	d.Name = string(b[:i])
	d.Year = binary.LittleEndian.Uint64(b[i+1 : i+9])
	return nil
}

func TestTypedBufferWrongTypeRejected(t *testing.T) {
	w := testWFD(t, nil)
	w.Run("a", func(env *asstd.Env) error {
		return asstd.SendValue(env, "typed", demoData{Name: "x", Year: 2025})
	})
	err := w.Run("b", func(env *asstd.Env) error {
		_, err := asstd.RecvValue[otherData](env, "typed")
		return err
	})
	if err == nil {
		t.Fatal("wrong-typed receive succeeded")
	}
}

type otherData struct{ A int }

func (o otherData) MarshalFaas() ([]byte, error)  { return []byte{1}, nil }
func (o *otherData) UnmarshalFaas(b []byte) error { return nil }

// TestUserCannotTouchSystemPartition verifies the MPK partition boundary
// from inside a user function.
func TestUserCannotTouchSystemPartition(t *testing.T) {
	w := testWFD(t, nil)
	// Find a system-key page: the WFD maps its system partition first.
	var sysAddr uint64
	for addr := uint64(mem.PageSize); addr < 64*mem.PageSize; addr += mem.PageSize {
		if k, err := w.Space.KeyAt(addr); err == nil && k == 1 {
			sysAddr = addr
			break
		}
	}
	if sysAddr == 0 {
		t.Fatal("no system page found")
	}
	err := w.Run("attacker", func(env *asstd.Env) error {
		return w.Space.WriteAt(env.Context(), sysAddr, []byte("pwn"))
	})
	if !errors.Is(err, mem.ErrAccessDenied) {
		t.Fatalf("user write to system partition: err = %v, want denied", err)
	}
}

func TestTrampolineRestoresUserRights(t *testing.T) {
	w := testWFD(t, nil)
	w.Run("f", func(env *asstd.Env) error {
		before := env.Context().ReadPKRU()
		if _, err := asstd.Now(env); err != nil {
			return err
		}
		after := env.Context().ReadPKRU()
		if before != after {
			t.Errorf("PKRU not restored: %v -> %v", before, after)
		}
		if env.Crossings() < 2 {
			t.Errorf("crossings = %d, want >= 2 (enter+leave)", env.Crossings())
		}
		return nil
	})
}

func TestFunctionFaultIsolated(t *testing.T) {
	w := testWFD(t, nil)
	err := w.Run("crasher", func(env *asstd.Env) error {
		var p *int
		_ = *p // nil dereference: the paper's "occasional bug"
		return nil
	})
	if !errors.Is(err, ErrFunctionFault) {
		t.Fatalf("fault: err = %v, want ErrFunctionFault", err)
	}
	if w.Faults() != 1 {
		t.Fatalf("Faults = %d", w.Faults())
	}
	// The WFD survives: a retry (paper's restart-failed-function path)
	// succeeds and previously loaded modules are still there.
	err = w.Run("retry", func(env *asstd.Env) error {
		_, err := asstd.Now(env)
		return err
	})
	if err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
}

func TestFaultAfterBufferWriteLeavesDataIntact(t *testing.T) {
	w := testWFD(t, nil)
	w.Run("writer", func(env *asstd.Env) error {
		b, err := asstd.NewBuffer(env, "durable", 16)
		if err != nil {
			return err
		}
		copy(b.Bytes(), "survives")
		panic("crash after write")
	})
	var got string
	if err := w.Run("reader", func(env *asstd.Env) error {
		b, err := asstd.FromSlot(env, "durable")
		if err != nil {
			return err
		}
		got = string(b.Bytes()[:8])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != "survives" {
		t.Fatalf("intermediate data lost after fault: %q", got)
	}
}

func TestIFIBuffersRebindAcrossFunctions(t *testing.T) {
	w := testWFD(t, func(o *Options) { o.IFI = true })
	envA, err := w.NewEnv("a")
	if err != nil {
		t.Fatal(err)
	}
	envB, err := w.NewEnv("b")
	if err != nil {
		t.Fatal(err)
	}
	var addr uint64
	if err := w.RunEnv(envA, func(env *asstd.Env) error {
		b, err := asstd.NewBuffer(env, "ifi", 100)
		if err != nil {
			return err
		}
		addr = b.Addr()
		copy(b.Bytes(), "private then shared")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Before acquire, function B's context cannot read A's buffer pages.
	if err := w.Space.ReadAt(envB.Context(), addr, make([]byte, 8)); !errors.Is(err, mem.ErrAccessDenied) {
		t.Fatalf("B read A's buffer before acquire: err = %v, want denied", err)
	}
	// Acquire rebinds the pages to B.
	if err := w.RunEnv(envB, func(env *asstd.Env) error {
		b, err := asstd.FromSlot(env, "ifi")
		if err != nil {
			return err
		}
		if string(b.Bytes()[:19]) != "private then shared" {
			t.Error("acquired content mismatch")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// And now A's context is locked out.
	if err := w.Space.ReadAt(envA.Context(), addr, make([]byte, 8)); !errors.Is(err, mem.ErrAccessDenied) {
		t.Fatalf("A read buffer after handoff: err = %v, want denied", err)
	}
}

func TestWFDIsolationSeparateSlots(t *testing.T) {
	w1 := testWFD(t, nil)
	w2 := testWFD(t, nil)
	w1.Run("a", func(env *asstd.Env) error {
		b, err := asstd.NewBuffer(env, "shared-name", 16)
		if err != nil {
			return err
		}
		copy(b.Bytes(), "wfd1 secret")
		return nil
	})
	// The same slot name in another WFD resolves nothing: slots are
	// namespaced per WFD because each has its own as-libos.
	err := w2.Run("b", func(env *asstd.Env) error {
		_, err := asstd.FromSlot(env, "shared-name")
		return err
	})
	if err == nil {
		t.Fatal("slot leaked across WFDs")
	}
}

func TestDestroyReleasesNetwork(t *testing.T) {
	hub := netstack.NewHub()
	w := testWFD(t, func(o *Options) {
		o.Hub = hub
		o.IP = netstack.IP(10, 9, 0, 1)
	})
	w.Run("f", func(env *asstd.Env) error {
		_, err := asstd.LocalIP(env)
		return err
	})
	w.Destroy()
	// The address is free again: a new WFD can claim it.
	w2 := testWFD(t, func(o *Options) {
		o.Hub = hub
		o.IP = netstack.IP(10, 9, 0, 1)
	})
	if err := w2.Run("f", func(env *asstd.Env) error {
		_, err := asstd.LocalIP(env)
		return err
	}); err != nil {
		t.Fatalf("IP not released on destroy: %v", err)
	}
}

func TestRunAfterDestroy(t *testing.T) {
	w := testWFD(t, nil)
	w.Destroy()
	if err := w.Run("f", func(env *asstd.Env) error { return nil }); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("run after destroy: err = %v, want ErrDestroyed", err)
	}
}

// Destroy releases the space only when no attempt is live: an env made
// before Destroy cannot start afterwards, and a body still running when
// Destroy comes keeps its memory until the GC takes it.
func TestReleaseContractDestroyWaitsForLiveAttempts(t *testing.T) {
	w := testWFD(t, nil)
	env, err := w.NewEnv("late")
	if err != nil {
		t.Fatal(err)
	}
	w.Destroy()
	if err := w.RunEnv(env, func(*asstd.Env) error { return nil }); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("RunEnv after Destroy: %v, want ErrDestroyed", err)
	}
	if _, err := w.Space.Map(mem.PageSize); !errors.Is(err, mem.ErrReleased) {
		t.Fatalf("an idle WFD's space after Destroy: %v, want ErrReleased", err)
	}

	w = testWFD(t, nil)
	inside, leave := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- w.Run("running", func(env *asstd.Env) error {
			b, err := asstd.NewBuffer(env, "s", 64)
			if err != nil {
				return err
			}
			close(inside)
			<-leave
			copy(b.Bytes(), "still mine")
			_, err = w.Space.Map(mem.PageSize)
			return err
		})
	}()
	<-inside
	w.Destroy()
	close(leave)
	if err := <-done; err != nil {
		t.Fatalf("a body running across Destroy: %v", err)
	}
}

func TestFilesViaAsStd(t *testing.T) {
	w := testWFD(t, nil)
	err := w.Run("writer", func(env *asstd.Env) error {
		if err := asstd.MountFS(env); err != nil {
			return err
		}
		return asstd.WriteFile(env, "/out.txt", []byte("written via as-std"))
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	err = w.Run("reader", func(env *asstd.Env) error {
		var err error
		got, err = asstd.ReadFile(env, "/out.txt")
		return err
	})
	if err != nil || string(got) != "written via as-std" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestStdoutRouted(t *testing.T) {
	var out bytes.Buffer
	w := testWFD(t, func(o *Options) { o.Stdout = &out })
	w.Run("printer", func(env *asstd.Env) error {
		return asstd.Printf(env, "%sSys, %d\n", "Euro", 2025)
	})
	if out.String() != "EuroSys, 2025\n" {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestConcurrentFunctionsShareModules(t *testing.T) {
	w := testWFD(t, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- w.Run("par", func(env *asstd.Env) error {
				_, err := asstd.Now(env)
				return err
			})
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The time module loaded exactly once despite 8 concurrent users.
	count := 0
	for _, m := range w.NS.LoadedModules() {
		if m == "time" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("time module loaded %d times", count)
	}
}

func TestColdStartMeasured(t *testing.T) {
	w := testWFD(t, nil)
	if w.ColdStart <= 0 {
		t.Fatal("ColdStart not measured")
	}
}

func TestMemoryUsageGrowsWithBuffers(t *testing.T) {
	w := testWFD(t, nil)
	before := w.MemoryUsage()
	w.Run("alloc", func(env *asstd.Env) error {
		_, err := asstd.NewBuffer(env, "big", 1<<20)
		return err
	})
	if after := w.MemoryUsage(); after <= before {
		t.Fatalf("memory usage did not grow: %d -> %d", before, after)
	}
}

// TestInstantiateAllocatesLittle guards the demand-backed boot: a WFD
// that runs nothing reserves its partitions but backs none of them, so an
// Instantiate+Destroy cycle allocates a few KiB of bookkeeping, not the
// 64 KiB system partition (let alone a heap chunk).
func TestInstantiateAllocatesLittle(t *testing.T) {
	const runs = 100
	opts := Options{OnDemand: true, CostScale: 0}
	cycle := func() {
		w, err := Instantiate(opts)
		if err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		w.Destroy()
	}
	cycle() // the shared registry is built once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 32<<10 {
		t.Fatalf("Instantiate+Destroy allocates %d bytes per cycle, want <= %d", perRun, 32<<10)
	}
}

// An image fatfs.Mount refuses is reported when a function first mounts
// the WFD's filesystem, and left as it was: only a blank device is
// formatted.
func TestBadImageIsNotFormatted(t *testing.T) {
	disk := blockdev.NewMemDisk(8 << 20)
	if _, err := fatfs.Format(disk, fatfs.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	boot := make([]byte, 512)
	if err := disk.ReadAt(boot, 0); err != nil {
		t.Fatal(err)
	}
	boot[511] = 0 // break the boot signature
	if err := disk.WriteAt(boot, 0); err != nil {
		t.Fatal(err)
	}
	image := func() []byte {
		b := make([]byte, disk.Size())
		if err := disk.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := image()

	w := testWFD(t, func(o *Options) { o.DiskImage = disk })
	err := w.Run("f", func(env *asstd.Env) error {
		if err := asstd.MountFS(env); err != nil {
			return err
		}
		return asstd.WriteFile(env, "/a.txt", []byte("x"))
	})
	if !errors.Is(err, fatfs.ErrBadImage) {
		t.Fatalf("file op on a bad image: err = %v, want fatfs.ErrBadImage", err)
	}
	if !bytes.Equal(image(), before) {
		t.Error("the refused image was written to")
	}
}
