// Package libos implements as-libos, the kernel-functionality layer of an
// AlloyStack WorkFlow Domain (paper §3.4, Table 2). One LibOS instance
// exists per WFD; it is the environment handed to every module
// initialiser by the on-demand loader, and its modules provide the
// syscall-like interfaces user functions reach through as-std:
//
//	mm                  alloc_buffer / acquire_buffer / mmap
//	fdtab               open / create / read / write / seek / close
//	fatfs               mounts the WFD's FAT disk image into the VFS
//	socket              bind / connect / accept / send / recv over the
//	                    per-WFD userspace TCP stack
//	stdio               host_stdout
//	time                gettimeofday
//	mmap_file_backend   register_file_backend (userfaultfd analogue)
//
// No module is instantiated until a function's first call needs it; the
// loader records the load trace that Table 1 and the Figure 14 ablation
// report.
package libos

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"alloystack/internal/blockdev"
	"alloystack/internal/fatfs"
	"alloystack/internal/loader"
	"alloystack/internal/mem"
	"alloystack/internal/mpk"
	"alloystack/internal/netstack"
	"alloystack/internal/ramfs"
	"alloystack/internal/vfs"
)

// Errors surfaced by LibOS interfaces.
var (
	ErrSlotExists  = errors.New("libos: slot already exists")
	ErrSlotMissing = errors.New("libos: no buffer registered under slot")
	ErrFingerprint = errors.New("libos: buffer fingerprint mismatch")
	ErrNoDiskImage = errors.New("libos: WFD has no disk image")
	ErrNoNetwork   = errors.New("libos: WFD has no network hub")
)

// Config describes the resources the visor grants a WFD's LibOS.
type Config struct {
	// Space and Domain are the WFD's single address space and its MPK
	// key allocator; the visor creates them before any module loads.
	Space  *mem.Space
	Domain *mpk.Domain

	// BufHeapSize bounds the intermediate-data heap (default 1 GiB).
	BufHeapSize uint64

	// DiskImage backs the fatfs module; nil if the workflow reads no
	// file inputs (e.g. FunctionChain, which skips fatfs per §8.1).
	DiskImage blockdev.Device

	// Fat adopts an already-mounted FAT filesystem instead of mounting
	// DiskImage. This is the snapshot/fork boot path: a clone shares its
	// warm template's filesystem (fatfs.FS is internally locked), so a
	// forked fatfs load performs zero device reads.
	Fat *fatfs.FS

	// Ramfs, when non-nil, is mounted instead of formatting/mounting
	// the FAT image — the Figure 16 configuration. It may arrive
	// pre-populated (shared input staging).
	Ramfs *ramfs.FS

	// Hub and IP configure the socket module's virtual NIC.
	Hub *netstack.Hub
	IP  netstack.Addr

	// Stdout receives stdio.host_stdout writes.
	Stdout io.Writer

	// Now is the time source (defaults to time.Now).
	Now func() time.Time
}

// LibOS is the per-WFD kernel-functionality state shared by all modules.
type LibOS struct {
	cfg Config

	Space  *mem.Space
	Domain *mpk.Domain

	// BufHeap holds AsBuffer allocations in the user partition, so
	// functions read intermediate data with plain loads.
	BufHeap *mem.Heap

	VFS *vfs.VFS
	FDs *vfs.FDTable

	mu     sync.Mutex
	slots  map[string]slotEntry
	net    *netstack.Stack
	fat    *fatfs.FS
	ram    *ramfs.FS
	stdout io.Writer
}

// slotEntry is one registered intermediate-data buffer (paper §5).
type slotEntry struct {
	addr        uint64
	size        uint64
	fingerprint uint64
}

// New creates the LibOS state for one WFD. Modules are NOT loaded here —
// that is the loader's job, on demand.
func New(cfg Config) (*LibOS, error) {
	if cfg.Space == nil || cfg.Domain == nil {
		return nil, errors.New("libos: Config needs Space and Domain")
	}
	if cfg.BufHeapSize == 0 {
		cfg.BufHeapSize = 1 << 30
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Stdout == nil {
		cfg.Stdout = io.Discard
	}
	v := vfs.New()
	l := &LibOS{
		cfg:    cfg,
		Space:  cfg.Space,
		Domain: cfg.Domain,
		VFS:    v,
		FDs:    vfs.NewFDTable(v),
		slots:  make(map[string]slotEntry),
		stdout: cfg.Stdout,
	}
	return l, nil
}

// SetStdout redirects stdio.host_stdout. Warm-pool clones are forked
// before the invocation (and its output sink) exists, so the visor
// points the clone at the request's writer when it hands it out.
func (l *LibOS) SetStdout(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	l.mu.Lock()
	l.stdout = w
	l.mu.Unlock()
}

// writeStdout is the stdio module's sink; serialised because function
// instances in one stage run concurrently over a shared writer.
func (l *LibOS) writeStdout(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stdout.Write(p)
}

// Net returns the WFD's network stack, once the socket module loaded it.
func (l *LibOS) Net() *netstack.Stack {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.net
}

// Fat returns the mounted FAT filesystem, once fatfs loaded it.
func (l *LibOS) Fat() *fatfs.FS {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fat
}

// Ram returns the mounted ramfs, once fatfs loaded it in ramfs mode.
func (l *LibOS) Ram() *ramfs.FS {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ram
}

// Shutdown releases resources owned by loaded modules (the loader calls
// per-module shutdowns; this handles cross-module state).
func (l *LibOS) Shutdown() {
	l.FDs.CloseAll()
	l.mu.Lock()
	n := l.net
	l.net = nil
	l.mu.Unlock()
	if n != nil {
		n.Close()
	}
}

// Slots reports the live slot names (diagnostics/tests).
func (l *LibOS) Slots() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.slots)
}

// ---- typed entry-point signatures -------------------------------------
//
// as-std resolves loader symbols to these function types. Keeping the
// types here (the layer that owns the semantics) means as-std and the
// WASI adaptation layer share one contract.

// AllocBufferFn is mm.alloc_buffer: allocate an intermediate-data buffer
// and register it under slot. Returns the buffer's base address.
type AllocBufferFn func(slot string, size, align, fingerprint uint64) (uint64, error)

// AcquireBufferFn is mm.acquire_buffer: look up the buffer registered
// under slot, consume the slot entry, and return (addr, size).
type AcquireBufferFn func(slot string, fingerprint uint64) (uint64, uint64, error)

// FreeBufferFn is mm.free_buffer: release a buffer obtained from
// alloc_buffer/acquire_buffer once the receiver is done with it.
type FreeBufferFn func(addr uint64) error

// RegisterBufferFn is mm.register_buffer: re-register an already-owned
// buffer under a new slot without copying. This is how a chain function
// forwards intermediate data by reference: acquire upstream, process in
// place, register downstream.
type RegisterBufferFn func(slot string, addr, size, fingerprint uint64) error

// MmapFn is mm.mmap: map length anonymous bytes, returning the base.
type MmapFn func(length uint64) (uint64, error)

// OpenFn is fdtab.open; CreateFn is fdtab.create.
type OpenFn func(path string) (vfs.FD, error)

// CreateFn creates or truncates a file.
type CreateFn func(path string) (vfs.FD, error)

// ReadFn is fdtab.read (at the descriptor's position).
type ReadFn func(fd vfs.FD, p []byte) (int, error)

// WriteFn is fdtab.write.
type WriteFn func(fd vfs.FD, p []byte) (int, error)

// SeekFn is fdtab.seek.
type SeekFn func(fd vfs.FD, offset int64, whence int) (int64, error)

// SizeFn is fdtab.size.
type SizeFn func(fd vfs.FD) (int64, error)

// CloseFn is fdtab.close.
type CloseFn func(fd vfs.FD) error

// StatFn is fdtab.stat.
type StatFn func(path string) (vfs.FileInfo, error)

// ListenFn is socket.smol_bind+listen combined (bind a listener).
type ListenFn func(port uint16) (*netstack.Listener, error)

// ConnectFn is socket.smol_connect.
type ConnectFn func(remote netstack.Endpoint) (*netstack.Conn, error)

// LocalIPFn is socket.local_ip.
type LocalIPFn func() netstack.Addr

// StdoutFn is stdio.host_stdout.
type StdoutFn func(p []byte) (int, error)

// GettimeofdayFn is time.gettimeofday (Unix microseconds).
type GettimeofdayFn func() int64

// RegisterFileBackendFn is mmap_file_backend.register_file_backend: map
// the file at path into the address space with page faults served from
// the file (userfaultfd analogue). Returns the mapping base address.
type RegisterFileBackendFn func(path string, length uint64) (uint64, error)

// Calibrated per-module load costs. They sum to ≈88 ms, matching the
// paper's measured gap between on-demand (1.3 ms) and load-all (89.4 ms)
// cold starts. The distribution is inferred from the paper's own
// numbers: its benchmarks load mm/fdtab/stdio/time/fatfs on demand yet
// stay fast (Figures 12 and 16), so the bulk of the load-all cost must
// sit in the modules the benchmarks never touch — the socket module
// (TAP device creation + smoltcp init) and the userfaultfd-backed
// mmap_file_backend.
const (
	costMM     = 2 * time.Millisecond
	costFdtab  = 2 * time.Millisecond
	costFatfs  = 6 * time.Millisecond
	costSocket = 50 * time.Millisecond
	costStdio  = 1 * time.Millisecond
	costTime   = 1 * time.Millisecond
	costMmapFB = 26 * time.Millisecond
)

// NewRegistry builds the loader registry exposing every as-libos module.
// The registry is per-WFD in spirit but stateless, so callers may share
// one across WFDs; each namespace still instantiates its own modules.
func NewRegistry() *loader.Registry {
	r := loader.NewRegistry()
	r.MustRegister(loader.ModuleInfo{
		Name:    "mm",
		Exports: []loader.Symbol{"mm.alloc_buffer", "mm.acquire_buffer", "mm.free_buffer", "mm.register_buffer", "mm.mmap"},
		Cost:    costMM,
		Init:    initMM,
	})
	r.MustRegister(loader.ModuleInfo{
		Name: "fdtab",
		Exports: []loader.Symbol{
			"fdtab.open", "fdtab.create", "fdtab.read", "fdtab.write",
			"fdtab.seek", "fdtab.size", "fdtab.close", "fdtab.stat",
		},
		Deps: []string{"mm"},
		Cost: costFdtab,
		Init: initFdtab,
	})
	r.MustRegister(loader.ModuleInfo{
		Name:    "fatfs",
		Exports: []loader.Symbol{"fatfs.mount"},
		Deps:    []string{"fdtab"},
		Cost:    costFatfs,
		Init:    initFatfs,
	})
	r.MustRegister(loader.ModuleInfo{
		Name:    "socket",
		Exports: []loader.Symbol{"socket.listen", "socket.connect", "socket.local_ip"},
		Deps:    []string{"mm"},
		Cost:    costSocket,
		Init:    initSocket,
	})
	r.MustRegister(loader.ModuleInfo{
		Name:    "stdio",
		Exports: []loader.Symbol{"stdio.host_stdout"},
		Cost:    costStdio,
		Init:    initStdio,
	})
	r.MustRegister(loader.ModuleInfo{
		Name:    "time",
		Exports: []loader.Symbol{"time.gettimeofday"},
		Cost:    costTime,
		Init:    initTime,
	})
	r.MustRegister(loader.ModuleInfo{
		Name:    "mmap_file_backend",
		Exports: []loader.Symbol{"mmap_file_backend.register_file_backend"},
		Deps:    []string{"fdtab", "mm"},
		Cost:    costMmapFB,
		Init:    initMmapFileBackend,
	})
	return r
}

// module is the common Instance implementation.
type module struct {
	name     string
	entries  map[loader.Symbol]any
	shutdown func() error
}

func (m *module) Entries() map[loader.Symbol]any { return m.entries }
func (m *module) Shutdown() error {
	if m.shutdown == nil {
		return nil
	}
	return m.shutdown()
}

// env unwraps the loader environment into the LibOS.
func env(e any) (*LibOS, error) {
	l, ok := e.(*LibOS)
	if !ok {
		return nil, fmt.Errorf("libos: bad loader environment %T", e)
	}
	return l, nil
}
