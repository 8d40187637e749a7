package libos

import (
	"errors"
	"fmt"
	"io"

	"alloystack/internal/fatfs"
	"alloystack/internal/loader"
	"alloystack/internal/mem"
	"alloystack/internal/netstack"
	"alloystack/internal/vfs"
)

// ---- mm: heap buffers and the AsBuffer slot table ----------------------

func initMM(e any) (loader.Instance, error) {
	l, err := env(e)
	if err != nil {
		return nil, err
	}
	// The intermediate-data heap lives in the WFD's single address space;
	// it maps its first chunk when a function first asks for a buffer.
	heap := mem.NewHeap(l.Space, l.cfg.BufHeapSize)
	l.mu.Lock()
	l.BufHeap = heap
	l.mu.Unlock()

	allocBuffer := AllocBufferFn(func(slot string, size, align, fingerprint uint64) (uint64, error) {
		addr, err := heap.Alloc(size, align)
		if err != nil {
			return 0, err
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, dup := l.slots[slot]; dup {
			heap.Free(addr)
			return 0, fmt.Errorf("%w: %q", ErrSlotExists, slot)
		}
		l.slots[slot] = slotEntry{addr: addr, size: size, fingerprint: fingerprint}
		return addr, nil
	})

	acquireBuffer := AcquireBufferFn(func(slot string, fingerprint uint64) (uint64, uint64, error) {
		l.mu.Lock()
		entry, ok := l.slots[slot]
		if ok {
			// The paper removes the slot entry so no two functions can
			// own the same buffer (§7.1).
			delete(l.slots, slot)
		}
		l.mu.Unlock()
		if !ok {
			return 0, 0, fmt.Errorf("%w: %q", ErrSlotMissing, slot)
		}
		if entry.fingerprint != fingerprint {
			return 0, 0, fmt.Errorf("%w: %q", ErrFingerprint, slot)
		}
		return entry.addr, entry.size, nil
	})

	freeBuffer := FreeBufferFn(func(addr uint64) error {
		return heap.Free(addr)
	})

	registerBuffer := RegisterBufferFn(func(slot string, addr, size, fingerprint uint64) error {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, dup := l.slots[slot]; dup {
			return fmt.Errorf("%w: %q", ErrSlotExists, slot)
		}
		l.slots[slot] = slotEntry{addr: addr, size: size, fingerprint: fingerprint}
		return nil
	})

	mmap := MmapFn(func(length uint64) (uint64, error) {
		return l.Space.Map(length)
	})

	return &module{
		name: "mm",
		entries: map[loader.Symbol]any{
			"mm.alloc_buffer":    allocBuffer,
			"mm.acquire_buffer":  acquireBuffer,
			"mm.free_buffer":     freeBuffer,
			"mm.register_buffer": registerBuffer,
			"mm.mmap":            mmap,
		},
	}, nil
}

// ---- fdtab: file descriptors over the VFS -------------------------------

func initFdtab(e any) (loader.Instance, error) {
	l, err := env(e)
	if err != nil {
		return nil, err
	}
	t := l.FDs
	return &module{
		name: "fdtab",
		entries: map[loader.Symbol]any{
			"fdtab.open":   OpenFn(t.Open),
			"fdtab.create": CreateFn(t.Create),
			"fdtab.read":   ReadFn(t.Read),
			"fdtab.write":  WriteFn(t.Write),
			"fdtab.seek":   SeekFn(t.Seek),
			"fdtab.size":   SizeFn(t.Size),
			"fdtab.close":  CloseFn(t.Close),
			"fdtab.stat":   StatFn(l.VFS.Stat),
		},
		shutdown: func() error {
			t.CloseAll()
			return nil
		},
	}, nil
}

// ---- fatfs: mount the WFD's disk image (or ramfs, per Figure 16) -------

func initFatfs(e any) (loader.Instance, error) {
	l, err := env(e)
	if err != nil {
		return nil, err
	}
	if l.cfg.Fat != nil {
		// Snapshot/fork path: adopt the template's mounted filesystem.
		// No device I/O happens — the template already paid for the
		// mount, and fatfs.FS serialises access internally.
		if err := l.VFS.Mount("/", vfs.FatFS{FS: l.cfg.Fat}); err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.fat = l.cfg.Fat
		l.mu.Unlock()
	} else if r := l.cfg.Ramfs; r != nil {
		if err := l.VFS.Mount("/", vfs.RamFS{FS: r}); err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.ram = r
		l.mu.Unlock()
	} else {
		if l.cfg.DiskImage == nil {
			return nil, ErrNoDiskImage
		}
		fs, err := fatfs.Mount(l.cfg.DiskImage)
		if errors.Is(err, fatfs.ErrBlank) {
			// A blank device is formatted on first mount; an image Mount
			// refuses for any other reason is reported, never wiped.
			fs, err = fatfs.Format(l.cfg.DiskImage, fatfs.MkfsOptions{})
		}
		if err != nil {
			return nil, err
		}
		if err := l.VFS.Mount("/", vfs.FatFS{FS: fs}); err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.fat = fs
		l.mu.Unlock()
	}
	mount := func() error { return nil } // loading IS mounting; symbol kept for tracing
	return &module{
		name: "fatfs",
		entries: map[loader.Symbol]any{
			"fatfs.mount": mount,
		},
		shutdown: func() error {
			return l.VFS.Unmount("/")
		},
	}, nil
}

// ---- socket: per-WFD TCP stack on the virtual hub ----------------------

func initSocket(e any) (loader.Instance, error) {
	l, err := env(e)
	if err != nil {
		return nil, err
	}
	if l.cfg.Hub == nil {
		return nil, ErrNoNetwork
	}
	nic, err := l.cfg.Hub.Attach(l.cfg.IP)
	if err != nil {
		return nil, err
	}
	st := netstack.NewStack(nic)
	l.mu.Lock()
	l.net = st
	l.mu.Unlock()

	return &module{
		name: "socket",
		entries: map[loader.Symbol]any{
			"socket.listen":   ListenFn(st.Listen),
			"socket.connect":  ConnectFn(st.Dial),
			"socket.local_ip": LocalIPFn(st.Addr),
		},
		shutdown: func() error {
			l.mu.Lock()
			cur := l.net
			l.net = nil
			l.mu.Unlock()
			if cur != nil {
				cur.Close()
			}
			return nil
		},
	}, nil
}

// ---- stdio --------------------------------------------------------------

func initStdio(e any) (loader.Instance, error) {
	l, err := env(e)
	if err != nil {
		return nil, err
	}
	// Writes route through the LibOS so warm-pool clones can be
	// redirected per invocation (SetStdout) and concurrent instances
	// stay serialised over writers that need not be concurrency-safe.
	return &module{
		name: "stdio",
		entries: map[loader.Symbol]any{
			"stdio.host_stdout": StdoutFn(l.writeStdout),
		},
	}, nil
}

// ---- time ---------------------------------------------------------------

func initTime(e any) (loader.Instance, error) {
	l, err := env(e)
	if err != nil {
		return nil, err
	}
	now := l.cfg.Now
	return &module{
		name: "time",
		entries: map[loader.Symbol]any{
			"time.gettimeofday": GettimeofdayFn(func() int64 {
				return now().UnixMicro()
			}),
		},
	}, nil
}

// ---- mmap_file_backend: userfaultfd-style file mappings ------------------

func initMmapFileBackend(e any) (loader.Instance, error) {
	l, err := env(e)
	if err != nil {
		return nil, err
	}
	register := RegisterFileBackendFn(func(path string, length uint64) (uint64, error) {
		f, err := l.VFS.Open(path)
		if err != nil {
			return 0, err
		}
		if length == 0 {
			length = uint64(f.Size())
		}
		var base uint64
		base, err = l.Space.MapLazy(length, func(addr uint64, page []byte) error {
			off := int64(addr - base)
			n, rerr := f.ReadAt(page, off)
			// Short reads past EOF leave the page zero-filled, matching
			// mmap semantics for the file tail.
			if rerr != nil && !errors.Is(rerr, io.EOF) {
				return rerr
			}
			for i := n; i < len(page); i++ {
				page[i] = 0
			}
			return nil
		})
		return base, err
	})
	return &module{
		name: "mmap_file_backend",
		entries: map[loader.Symbol]any{
			"mmap_file_backend.register_file_backend": register,
		},
	}, nil
}
