package core

import (
	"bytes"
	"errors"
	"testing"

	"alloystack/internal/asstd"
	"alloystack/internal/blockdev"
)

// warmTemplate boots a WFD the way a pool does: modules loaded, a file
// written through fatfs, runtime marked warm, space sealed.
func warmTemplate(t *testing.T, dev blockdev.Device) *WFD {
	t.Helper()
	w, err := Instantiate(Options{
		OnDemand:    true,
		CostScale:   0,
		BufHeapSize: 16 << 20,
		DiskImage:   dev,
	})
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	t.Cleanup(w.Destroy)
	err = w.Run("__warmup", func(env *asstd.Env) error {
		if err := asstd.MountFS(env); err != nil {
			return err
		}
		return asstd.WriteFile(env, "/RT.BIN", bytes.Repeat([]byte{0x5A}, 4096))
	})
	if err != nil {
		t.Fatalf("warmup: %v", err)
	}
	w.MarkRuntimeWarm("/RT.BIN")
	w.Seal()
	return w
}

func TestForkPerformsZeroDeviceReads(t *testing.T) {
	dev := &blockdev.Counting{Inner: blockdev.NewMemDisk(8 << 20)}
	tpl := warmTemplate(t, dev)
	reads0, _, bytes0, _ := dev.Stats()

	for i := 0; i < 3; i++ {
		clone, err := tpl.Fork()
		if err != nil {
			t.Fatalf("Fork: %v", err)
		}
		// A warm boot runs the visor's runtime-init protocol: the mount
		// is adopted from the snapshot (fatfs replay reads no sectors)
		// and the runtime image is warm, so the boot never opens it.
		err = clone.Run("boot", func(env *asstd.Env) error {
			if err := asstd.MountFS(env); err != nil {
				return err
			}
			if !clone.RuntimeWarm("/RT.BIN") {
				t.Error("runtime not warm in clone")
			}
			// Allocating intermediate-data buffers must not fault file
			// pages back in either.
			buf, err := asstd.NewBuffer(env, "warm", 1024)
			if err != nil {
				return err
			}
			return buf.Free()
		})
		if err != nil {
			t.Fatalf("clone run: %v", err)
		}
		clone.Destroy()
	}

	reads, _, bytesRead, _ := dev.Stats()
	if reads != reads0 || bytesRead != bytes0 {
		t.Fatalf("forked boots touched the device: reads %d->%d bytes %d->%d",
			reads0, reads, bytes0, bytesRead)
	}

	// Contrast: a cold boot must read the image from the device.
	cold := testWFD(t, func(o *Options) { o.DiskImage = dev })
	err := cold.Run("coldboot", func(env *asstd.Env) error {
		if err := asstd.MountFS(env); err != nil {
			return err
		}
		_, err := asstd.ReadFile(env, "/RT.BIN")
		return err
	})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	coldReads, _, _, _ := dev.Stats()
	if coldReads == reads {
		t.Fatal("cold boot performed zero device reads; counter is not wired")
	}
}

func TestForkInheritsWarmMarkers(t *testing.T) {
	dev := &blockdev.Counting{Inner: blockdev.NewMemDisk(8 << 20)}
	tpl := warmTemplate(t, dev)

	clone, err := tpl.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	defer clone.Destroy()

	if !clone.Forked() {
		t.Fatal("clone.Forked() = false")
	}
	if !clone.RuntimeWarm("/RT.BIN") {
		t.Fatal("clone lost the warm-runtime marker")
	}
	// Warm markers imply InitCost was already paid: the first-init gate
	// must be closed in the clone.
	if clone.FirstRuntimeInit("/RT.BIN") {
		t.Fatal("clone would pay InitCost again")
	}
	// A cold WFD pays once, and only once.
	cold := testWFD(t, nil)
	if !cold.FirstRuntimeInit("/X.BIN") {
		t.Fatal("first init not granted")
	}
	if cold.FirstRuntimeInit("/X.BIN") {
		t.Fatal("second init granted")
	}
}

func TestForkClonesAreIsolated(t *testing.T) {
	dev := &blockdev.Counting{Inner: blockdev.NewMemDisk(8 << 20)}
	tpl := warmTemplate(t, dev)

	a, err := tpl.Fork()
	if err != nil {
		t.Fatalf("Fork a: %v", err)
	}
	defer a.Destroy()
	b, err := tpl.Fork()
	if err != nil {
		t.Fatalf("Fork b: %v", err)
	}
	defer b.Destroy()

	// Each clone allocates buffers in its own heap; slots do not leak
	// across clones.
	err = a.Run("writer", func(env *asstd.Env) error {
		buf, err := asstd.NewBuffer(env, "s1", 64)
		if err != nil {
			return err
		}
		copy(buf.Bytes(), "hello from a")
		return nil
	})
	if err != nil {
		t.Fatalf("a run: %v", err)
	}
	err = b.Run("reader", func(env *asstd.Env) error {
		if _, err := asstd.FromSlot(env, "s1"); err == nil {
			t.Error("slot s1 visible in sibling clone")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("b run: %v", err)
	}

	// Destroying one clone leaves the template and the sibling alive.
	a.Destroy()
	if tpl.Destroyed() || b.Destroyed() {
		t.Fatal("destroying a clone tore down template or sibling")
	}
	err = b.Run("reader2", func(env *asstd.Env) error {
		_, err := asstd.ReadFile(env, "/RT.BIN")
		return err
	})
	if err != nil {
		t.Fatalf("sibling after destroy: %v", err)
	}
}

func TestForkAfterDestroyFails(t *testing.T) {
	dev := &blockdev.Counting{Inner: blockdev.NewMemDisk(8 << 20)}
	tpl := warmTemplate(t, dev)
	tpl.Destroy()
	if _, err := tpl.Fork(); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("Fork after destroy = %v, want ErrDestroyed", err)
	}
}
