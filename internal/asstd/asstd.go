// Package asstd implements as-std, AlloyStack's standard-library layer
// (paper §3.5). User functions never issue syscalls: every OS interaction
// goes through this package, which
//
//  1. intercepts the request and routes it to the as-libos entry point,
//     resolving the entry through as-visor's find_hostcall on first use
//     (the slow path of Figure 7) and from a per-WFD entry cache after
//     that (the fast path);
//  2. switches the executing context's MPK permissions through a
//     trampoline before transferring control into the system partition,
//     and drops them again on return (Figure 9);
//  3. exposes the AsBuffer reference-passing API (§5) plus familiar
//     File/TcpStream/Stdout/Now wrappers so porting a function is a
//     matter of swapping imports, exactly as the paper's Figure 5 shows
//     for Rust's std.
package asstd

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"alloystack/internal/libos"
	"alloystack/internal/loader"
	"alloystack/internal/mem"
	"alloystack/internal/metrics"
	"alloystack/internal/mpk"
	"alloystack/internal/netstack"
	"alloystack/internal/trace"
	"alloystack/internal/vfs"
)

// Errors returned by the as-std layer.
var (
	ErrBadEntryType = errors.New("asstd: LibOS entry has unexpected type")
	ErrBufferFreed  = errors.New("asstd: buffer already freed")
)

// Env is one function instance's execution environment: its protection
// context, the WFD's namespace, and the function-local entry cache. The
// visor builds one Env per function instance (the paper binds the same
// state to each user thread).
type Env struct {
	FuncName string

	ns    *loader.Namespace
	space *mem.Space
	ctx   mpk.Context // the env's own PKRU register

	userPKRU mpk.PKRU
	sysPKRU  mpk.PKRU

	// cache is the per-function record of resolved entry addresses —
	// "as-std records the address entry for open()" in Figure 7(b). It
	// holds as many as any benchmark function resolves (a file-chain
	// link's seven); the namespace answers for any more.
	cache [7]cachedEntry

	// Inter-function isolation (paper §3.3, "AS-IFI"): when enabled,
	// this function owns a private protection key, and buffers are
	// rebound to the owner's key on alloc and acquire — the page-level
	// pkey_mprotect work plus extra PKRU traffic that Figure 11 charges
	// to AS-IFI.
	ifi    bool
	ifiKey mpk.Key
	// guest marks an env bound by BindWASISlots: guest bytecode cannot
	// hold a Go slice, so the buffer views it causes never outlive the
	// host call, the instance or the run's buffer pool, and do not
	// escape the Space (see view).
	guest  bool
	domain *mpk.Domain

	// Clock, when set, receives stage accounting (Figure 15).
	Clock *metrics.StageClock

	// Span, when set by the visor, is this function instance's trace
	// span: phase, transfer and syscall sub-spans hang off it. The nil
	// span is the disabled sink, so instrumentation sites below need no
	// conditionals.
	Span *trace.Span

	// transport, when set by the visor, is the data plane this function
	// instance moves intermediate data through. Workloads and the WASI
	// slot bindings route every send/recv through it so all tiers share
	// one code path.
	transport Transport
}

// Transport is the unified data plane seam: every path an intermediate
// payload can take between two functions — AsBuffer reference passing,
// LibOS file spill, kvstore forwarding — implements this one interface.
// It is declared here (rather than in internal/xfer, which provides the
// implementations) because Env carries one and Buffer is the zero-copy
// currency; xfer re-exports it as `xfer.Transport`.
type Transport interface {
	// Kind names the path: "refpass", "file" or "kv".
	Kind() string

	// Send registers data downstream under slot, copying as the path
	// requires (refpass: one copy into a fresh AsBuffer; file/kv: one
	// copy into the medium).
	Send(slot string, data []byte) error

	// Alloc returns a buffer registered under slot for the producer to
	// fill in place — the zero-copy producing path. Transports without
	// shared memory return a staging buffer that SendBuffer then ships.
	Alloc(slot string, size uint64) (*Buffer, error)

	// SendBuffer completes a transfer started with Alloc. On the
	// refpass path this is free (the buffer is already registered); on
	// spill paths it writes the bytes out and releases the buffer.
	SendBuffer(b *Buffer) error

	// Recv obtains the payload registered under slot, consuming it.
	// The bytes are valid until the release closure is called, once,
	// when the caller is done with them: it frees the underlying buffer
	// on the refpass path and parks the file path's read-back array
	// for reuse (mem.Park), so nothing may read them, or keep a view of
	// them, afterwards. Copy what must outlive the release.
	Recv(slot string) ([]byte, func() error, error)
}

// SetTransport installs the data plane for this function instance; the
// visor calls it once per env before user code runs.
func (e *Env) SetTransport(t Transport) { e.transport = t }

// Transport returns the installed data plane, or nil when the env was
// built outside the visor (tests construct transports directly).
func (e *Env) Transport() Transport { return e.transport }

// TimeStage runs fn, charging one measured duration to BOTH the stage
// clock and a phase span under the instance's trace span. A single
// measurement feeds both sinks, so an exported trace's per-phase totals
// agree with the StageClock breakdown exactly, not approximately.
func (e *Env) TimeStage(stage metrics.Stage, fn func() error) error {
	start := time.Now()
	err := fn()
	e.ChargeStage(stage, start, time.Since(start))
	return err
}

// ChargeStage records an externally measured (start, duration) window
// against a breakdown stage, in the clock and as a phase span.
func (e *Env) ChargeStage(stage metrics.Stage, start time.Time, d time.Duration) {
	if e.Clock != nil {
		e.Clock.Add(stage, d)
	}
	e.Span.Complete(stage.String(), trace.CatPhase, start, d)
}

// IFI reports whether inter-function isolation is enabled for this env.
// The pooled buffer allocator consults it: recycling a buffer across
// functions would leak a stale key binding under IFI.
func (e *Env) IFI() bool { return e.ifi }

// EnableIFI gives the env a private protection key; buffers it allocates
// or acquires are rebound to that key at page granularity.
func (e *Env) EnableIFI(domain *mpk.Domain, key mpk.Key) {
	e.ifi = true
	e.domain = domain
	e.ifiKey = key
}

// bindBufferPages rebinds a buffer's pages to this function's key. The
// caller runs inside a syscall (elevated PKRU), as as-libos would.
func (e *Env) bindBufferPages(addr, size uint64) error {
	base := addr &^ uint64(mem.PageSize-1)
	end := (addr + size + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
	return e.domain.PkeyMprotect(base, end-base, e.ifiKey)
}

// Init makes e, a zero Env, the named function's execution environment.
// userPKRU is the register value for user code, sysPKRU for
// system-partition execution.
func (e *Env) Init(name string, ns *loader.Namespace, space *mem.Space, userPKRU, sysPKRU mpk.PKRU) {
	e.FuncName, e.ns, e.space = name, ns, space
	e.userPKRU, e.sysPKRU = userPKRU, sysPKRU
	e.ctx.Init(userPKRU)
}

// Context returns the env's protection context (tests, visor).
func (e *Env) Context() *mpk.Context { return &e.ctx }

// Space returns the WFD's address space.
func (e *Env) Space() *mem.Space { return e.space }

// Crossings reports how many PKRU writes this env's context performed —
// two per syscall (elevate + drop), the cost the AS-IFI rows expose.
func (e *Env) Crossings() uint64 { return e.ctx.Writes() }

// enterSys is the trampoline's first half: elevate to system rights.
func (e *Env) enterSys() { e.ctx.WritePKRU(e.sysPKRU) }

// leaveSys is the trampoline's second half: drop back to user rights.
func (e *Env) leaveSys() { e.ctx.WritePKRU(e.userPKRU) }

// entry resolves sym to its typed entry point: function-local cache
// first, then the namespace (which may trigger an on-demand module load
// through as-visor).
func entry[T any](e *Env, sym loader.Symbol) (T, error) {
	var zero T
	// The cache fills from the front: stop at sym or the first free slot.
	i := 0
	for i < len(e.cache) && e.cache[i].fn != nil && e.cache[i].sym != sym {
		i++
	}
	var fn any
	var err error
	if i < len(e.cache) && e.cache[i].fn != nil {
		fn = e.cache[i].fn
	} else if fn, err = e.ns.FindHostcall(sym); err != nil {
		return zero, err
	}
	typed, ok := fn.(T)
	if !ok {
		return zero, fmt.Errorf("%w: %s is %T", ErrBadEntryType, sym, fn)
	}
	if i < len(e.cache) {
		e.cache[i] = cachedEntry{sym, fn}
	}
	return typed, nil
}

// cachedEntry is one resolved entry in an env's cache; nil fn is free.
type cachedEntry struct {
	sym loader.Symbol
	fn  any
}

// syscall wraps a LibOS call with the MPK trampoline. When the env's
// tracer asked for syscall-level detail, each crossing records a span
// named by the LibOS symbol (deferred first, so it closes after the
// PKRU drop and covers the full trampoline round trip).
func syscall[T any](e *Env, sym loader.Symbol, call func(fn T) error) error {
	fn, err := entry[T](e, sym)
	if err != nil {
		return err
	}
	sp := e.Span.Syscall(string(sym))
	defer sp.End()
	e.enterSys()
	defer e.leaveSys()
	return call(fn)
}

// ---- AsBuffer: reference passing (paper §5, Figures 6 and 8) ----------

// Buffer is a raw intermediate-data buffer in the WFD's shared address
// space. Bytes() is a zero-copy view: after the buffer reference crosses
// functions via its slot, reads and writes are plain memory operations.
type Buffer struct {
	env   *Env
	slot  string
	addr  uint64
	size  uint64
	data  []byte
	freed bool
}

// NewBuffer allocates a size-byte buffer and registers it under slot
// (AsBuffer::with_slot). fingerprint 0 means untyped.
func NewBuffer(e *Env, slot string, size uint64) (*Buffer, error) {
	return newBufferFP(e, slot, size, 0)
}

func newBufferFP(e *Env, slot string, size uint64, fingerprint uint64) (*Buffer, error) {
	var addr uint64
	align := uint64(16)
	if e.ifi {
		// Keys bind at page granularity, so isolated buffers are
		// page-aligned and page-rounded.
		align = mem.PageSize
		size = (size + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
	}
	err := syscall(e, "mm.alloc_buffer", func(fn libos.AllocBufferFn) error {
		var err error
		addr, err = fn(slot, size, align, fingerprint)
		if err == nil && e.ifi {
			err = e.bindBufferPages(addr, size)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.view(slot, addr, size)
}

// view wraps [addr, addr+size) as a Buffer of e's. It is the one place
// as-std takes a Space view; a native function body may keep its
// Bytes() forever, so under a native env the Space is marked escaped
// first and will not recycle its arrays.
func (e *Env) view(slot string, addr, size uint64) (*Buffer, error) {
	e.Adopt()
	data, err := e.space.Slice(&e.ctx, addr, size, true)
	if err != nil {
		return nil, err
	}
	return &Buffer{env: e, slot: slot, addr: addr, size: size, data: data}, nil
}

// Adopt records that e's function holds a view of the Space: a native
// env marks the Space escaped (mem.Space.Escape), a guest env does not.
// Whoever hands e a Buffer another env created, as a buffer pool does,
// calls it first.
func (e *Env) Adopt() {
	if !e.guest {
		e.space.Escape()
	}
}

// FromSlot obtains the buffer registered under slot, consuming the slot
// entry (AsBuffer::from_slot).
func FromSlot(e *Env, slot string) (*Buffer, error) {
	return fromSlotFP(e, slot, 0)
}

func fromSlotFP(e *Env, slot string, fingerprint uint64) (*Buffer, error) {
	var addr, size uint64
	err := syscall(e, "mm.acquire_buffer", func(fn libos.AcquireBufferFn) error {
		var err error
		addr, size, err = fn(slot, fingerprint)
		if err == nil && e.ifi {
			// Hand the pages over to the receiving function's key.
			err = e.bindBufferPages(addr, size)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.view(slot, addr, size)
}

// Bytes returns the buffer's contents as a zero-copy view.
func (b *Buffer) Bytes() []byte { return b.data }

// Size returns the buffer length in bytes.
func (b *Buffer) Size() uint64 { return b.size }

// Addr returns the buffer's address in the WFD space (diagnostics).
func (b *Buffer) Addr() uint64 { return b.addr }

// Slot returns the namespace key the buffer was registered under.
func (b *Buffer) Slot() string { return b.slot }

// Forward re-registers this buffer under a new slot without copying —
// the chain-forwarding pattern: acquire upstream, mutate in place,
// forward downstream by reference.
func (b *Buffer) Forward(slot string) error {
	if b.freed {
		return ErrBufferFreed
	}
	err := syscall(b.env, "mm.register_buffer", func(fn libos.RegisterBufferFn) error {
		return fn(slot, b.addr, b.size, 0)
	})
	if err == nil {
		b.slot = slot
	}
	return err
}

// Free releases the buffer's memory back to the WFD heap.
func (b *Buffer) Free() error {
	if b.freed {
		return ErrBufferFreed
	}
	b.freed = true
	return syscall(b.env, "mm.free_buffer", func(fn libos.FreeBufferFn) error {
		return fn(b.addr)
	})
}

// ---- typed AsBuffer ----------------------------------------------------
//
// The paper's Rust AsBuffer<T> reinterprets the shared memory as a typed
// struct. Go cannot safely reinterpret bytes as arbitrary structs, so the
// typed convenience API serialises with a compact internal encoding while
// the raw Buffer above remains the zero-copy fast path used by all
// benchmarks. The fingerprint carries the type identity so a receiver
// asking for the wrong T is rejected, like the paper's FaasData bound.

// Fingerprint derives a stable type fingerprint for T.
func Fingerprint[T any]() uint64 {
	var v T
	h := fnv.New64a()
	fmt.Fprintf(h, "%T", v)
	return h.Sum64()
}

// Marshaler lets a FaasData-style type control its wire form.
type Marshaler interface {
	MarshalFaas() ([]byte, error)
}

// Unmarshaler is the decoding half of Marshaler.
type Unmarshaler interface {
	UnmarshalFaas([]byte) error
}

// SendValue encodes v and registers it under slot (typed with_slot).
func SendValue[T Marshaler](e *Env, slot string, v T) error {
	raw, err := v.MarshalFaas()
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		raw = []byte{0}
	}
	b, err := newBufferFP(e, slot, uint64(len(raw)), Fingerprint[T]())
	if err != nil {
		return err
	}
	copy(b.Bytes(), raw)
	return nil
}

// RecvValue obtains the typed value registered under slot (typed
// from_slot). The buffer is freed after decoding.
func RecvValue[T any, PT interface {
	Unmarshaler
	*T
}](e *Env, slot string) (T, error) {
	var out T
	b, err := fromSlotFP(e, slot, Fingerprint[T]())
	if err != nil {
		return out, err
	}
	defer b.Free()
	if err := PT(&out).UnmarshalFaas(b.Bytes()); err != nil {
		return out, err
	}
	return out, nil
}

// ---- files (fdtab entries) ----------------------------------------------

// File is an open file routed through the LibOS fd table.
type File struct {
	env *Env
	fd  vfs.FD
}

// Open opens an existing file.
func Open(e *Env, path string) (*File, error) {
	var fd vfs.FD
	err := syscall(e, "fdtab.open", func(fn libos.OpenFn) error {
		var err error
		fd, err = fn(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &File{env: e, fd: fd}, nil
}

// Create creates or truncates a file.
func Create(e *Env, path string) (*File, error) {
	var fd vfs.FD
	err := syscall(e, "fdtab.create", func(fn libos.CreateFn) error {
		var err error
		fd, err = fn(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &File{env: e, fd: fd}, nil
}

// MountFS ensures the WFD's filesystem module is loaded (fatfs or ramfs
// per the WFD config). Functions reading workflow inputs call it first;
// the load is a no-op when an earlier function already pulled it in.
func MountFS(e *Env) error {
	return syscall(e, "fatfs.mount", func(fn func() error) error {
		return fn()
	})
}

// Read implements io.Reader.
func (f *File) Read(p []byte) (int, error) {
	var n int
	err := syscall(f.env, "fdtab.read", func(fn libos.ReadFn) error {
		var err error
		n, err = fn(f.fd, p)
		return err
	})
	return n, err
}

// Write implements io.Writer.
func (f *File) Write(p []byte) (int, error) {
	var n int
	err := syscall(f.env, "fdtab.write", func(fn libos.WriteFn) error {
		var err error
		n, err = fn(f.fd, p)
		return err
	})
	return n, err
}

// Seek repositions the descriptor.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	var pos int64
	err := syscall(f.env, "fdtab.seek", func(fn libos.SeekFn) error {
		var err error
		pos, err = fn(f.fd, offset, whence)
		return err
	})
	return pos, err
}

// Size returns the file size.
func (f *File) Size() (int64, error) {
	var n int64
	err := syscall(f.env, "fdtab.size", func(fn libos.SizeFn) error {
		var err error
		n, err = fn(f.fd)
		return err
	})
	return n, err
}

// Close releases the descriptor.
func (f *File) Close() error {
	return syscall(f.env, "fdtab.close", func(fn libos.CloseFn) error {
		return fn(f.fd)
	})
}

// ReadFile loads a whole file through as-std.
func ReadFile(e *Env, path string) ([]byte, error) {
	return ReadFileInto(e, path, func(size int) []byte { return make([]byte, size) })
}

// ReadFileInto loads a whole file through as-std into the buffer take
// returns for the file's size. A read error returns what was read, in
// that buffer, with the error.
func ReadFileInto(e *Env, path string, take func(size int) []byte) ([]byte, error) {
	f, err := Open(e, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := take(int(size))
	got := 0
	for got < len(buf) {
		n, err := f.Read(buf[got:])
		got += n
		if err != nil {
			return buf[:got], err
		}
		if n == 0 {
			break
		}
	}
	return buf[:got], nil
}

// WriteFile creates path with data through as-std.
func WriteFile(e *Env, path string, data []byte) error {
	f, err := Create(e, path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}

// ---- sockets (socket entries) --------------------------------------------

// TcpListener accepts connections on the WFD's network stack.
type TcpListener struct {
	env *Env
	l   *netstack.Listener
}

// TcpStream is an established connection. Reads and writes cross into
// the system partition per call, as socket syscalls do.
type TcpStream struct {
	env *Env
	c   *netstack.Conn
}

// Listen binds a TCP listener on port.
func Listen(e *Env, port uint16) (*TcpListener, error) {
	var l *netstack.Listener
	err := syscall(e, "socket.listen", func(fn libos.ListenFn) error {
		var err error
		l, err = fn(port)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &TcpListener{env: e, l: l}, nil
}

// Accept waits for an inbound connection.
func (tl *TcpListener) Accept() (*TcpStream, error) {
	sp := tl.env.Span.Syscall("socket.accept")
	defer sp.End()
	tl.env.enterSys()
	defer tl.env.leaveSys()
	c, err := tl.l.Accept()
	if err != nil {
		return nil, err
	}
	return &TcpStream{env: tl.env, c: c}, nil
}

// Close unbinds the listener.
func (tl *TcpListener) Close() error {
	tl.env.enterSys()
	defer tl.env.leaveSys()
	return tl.l.Close()
}

// Connect dials a remote endpoint (Figure 5's TcpStream::connect).
func Connect(e *Env, remote netstack.Endpoint) (*TcpStream, error) {
	var c *netstack.Conn
	err := syscall(e, "socket.connect", func(fn libos.ConnectFn) error {
		var err error
		c, err = fn(remote)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &TcpStream{env: e, c: c}, nil
}

// LocalIP reports the WFD's address.
func LocalIP(e *Env) (netstack.Addr, error) {
	var a netstack.Addr
	err := syscall(e, "socket.local_ip", func(fn libos.LocalIPFn) error {
		a = fn()
		return nil
	})
	return a, err
}

// Read implements io.Reader.
func (ts *TcpStream) Read(p []byte) (int, error) {
	sp := ts.env.Span.Syscall("socket.read")
	defer sp.End()
	ts.env.enterSys()
	defer ts.env.leaveSys()
	return ts.c.Read(p)
}

// Write implements io.Writer.
func (ts *TcpStream) Write(p []byte) (int, error) {
	sp := ts.env.Span.Syscall("socket.write")
	defer sp.End()
	ts.env.enterSys()
	defer ts.env.leaveSys()
	return ts.c.Write(p)
}

// Close shuts the connection down.
func (ts *TcpStream) Close() error {
	ts.env.enterSys()
	defer ts.env.leaveSys()
	return ts.c.Close()
}

// ---- stdio and time --------------------------------------------------------

// Stdout writes to the host console through the stdio module.
func Stdout(e *Env, p []byte) (int, error) {
	var n int
	err := syscall(e, "stdio.host_stdout", func(fn libos.StdoutFn) error {
		var err error
		n, err = fn(p)
		return err
	})
	return n, err
}

// Printf formats to the host console.
func Printf(e *Env, format string, args ...any) error {
	_, err := Stdout(e, []byte(fmt.Sprintf(format, args...)))
	return err
}

// Now reads the host clock through the time module.
func Now(e *Env) (time.Time, error) {
	var micros int64
	err := syscall(e, "time.gettimeofday", func(fn libos.GettimeofdayFn) error {
		micros = fn()
		return nil
	})
	return time.UnixMicro(micros), err
}

// MmapFile maps a file into the WFD space with fault-served pages.
func MmapFile(e *Env, path string, length uint64) (uint64, error) {
	var base uint64
	err := syscall(e, "mmap_file_backend.register_file_backend",
		func(fn libos.RegisterFileBackendFn) error {
			var err error
			base, err = fn(path, length)
			return err
		})
	return base, err
}
