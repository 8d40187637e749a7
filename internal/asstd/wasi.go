package asstd

import (
	"errors"
	"fmt"
	"io"
	"time"

	"alloystack/internal/asvm"
	"alloystack/internal/metrics"
)

// This file is the adaptation layer between the ASVM guest runtime and
// as-std (paper §7.2): one binder defines every host import over a
// GuestHost, and AlloyStack's GuestHost forwards each call to the same
// LibOS entry points native functions use. Intermediate data crosses
// as byte copies into and out of the guest's linear memory (as in the
// paper, guests move data as strings/bytes), while the native AsBuffer
// stays zero-copy.

// WASI host-call error sentinel (guest-visible calls return -1 on error;
// the Go error carries detail for diagnostics).
var errWASI = errors.New("asstd: wasi host call failed")

// GuestHost is the substrate a guest's host imports run on. BindHost is
// the one binder of the imports: it owns the guest-memory bounds, the fd
// table, the edge-to-slot resolution and the -1 conventions, and asks the
// substrate only for the operations below. AlloyStack's substrate is the
// LibOS behind an Env (BindWASISlots); a comparison system supplies its
// own, so the same guest bytecode runs on each.
type GuestHost interface {
	Mount() error
	Open(path string) (GuestFile, error)
	Create(path string) (GuestFile, error)
	Stdout(b []byte) (int, error)
	Now() (time.Time, error)
	// RegisterBuffer copies data into a new buffer under slot;
	// AccessBuffer copies slot's buffer into dst and frees it.
	RegisterBuffer(slot string, data []byte) error
	AccessBuffer(slot string, dst []byte) (int, error)
	// Send copies data, which aliases guest memory, out under slot.
	Send(slot string, data []byte) error
	// Recv acquires slot's payload; drain copies it into guest memory
	// and releases it.
	Recv(slot string) (data []byte, drain func(dst []byte) (int, error), err error)
}

// GuestFile is an open file as the fd_* imports use it.
type GuestFile interface {
	io.ReadWriteSeeker
	Size() (int64, error)
	Close() error
}

// guestState is one guest instance's host-side state: its open files,
// fd 3 onward (nil once closed), and per in-edge the payload held
// between slot_size and slot_recv.
type guestState struct {
	h       GuestHost
	in, out []string
	files   []GuestFile
	held    []inbound
}

type inbound struct {
	data  []byte
	drain func(dst []byte) (int, error)
}

// BindWASISlots defines the guest host imports on l over env's LibOS:
// every call is forwarded to the entry points native functions use, so
// C- and Python-tier functions cross the identical MPK boundary. The
// guest addresses logical edges (0, 1, 2 …); the host, which knows the
// workflow topology, resolves them to the slot names in inSlots and
// outSlots, the same division of labour Faasm's chaining API uses, so
// guests need no string formatting to participate in a DAG. Call once
// per guest instantiation. The env is a guest's from then on: buffer
// views it takes do not escape the Space (Env.Adopt).
//
//	slot_send(ptr, len, edge)        copy guest bytes out to outSlots[edge]
//	slot_size(edge) -> size          peek inSlots[edge]'s size (acquires
//	                                 and caches the payload)
//	slot_recv(ptr, cap, edge) -> n   copy inSlots[edge]'s bytes into the
//	                                 guest (releases the cached payload)
func BindWASISlots(l *asvm.Linker, env *Env, inSlots, outSlots []string) {
	env.guest = true
	BindHost(l, libosHost{env}, inSlots, outSlots)
}

// BindHost defines the guest host imports (WASISlotImports) on l over h.
// The imports are package-level functions shared by every instance; the
// one guestState allocated here reaches them as the instance's Data.
func BindHost(l *asvm.Linker, h GuestHost, inSlots, outSlots []string) {
	l.SetData(&guestState{h: h, in: inSlots, out: outSlots, held: make([]inbound, len(inSlots))})
	for _, b := range wasiHosts {
		l.Define(b.name, b.fn)
	}
}

// wasiHosts is every import BindHost defines, in WASISlotImports order.
var wasiHosts = [...]struct {
	name string
	fn   asvm.HostFunc
}{
	{"fs_mount", fsMount},
	{"path_open", pathOpen},
	{"path_create", pathCreate},
	{"fd_read", fdRead},
	{"fd_write", fdWrite},
	{"fd_seek", fdSeek},
	{"fd_size", fdSize},
	{"fd_close", fdClose},
	{"clock_time_get", clockTimeGet},
	{"proc_stdout", procStdout},
	{"buffer_register", bufferRegister},
	{"access_buffer", accessBuffer},
	{"random_get", randomGet},
	{"slot_send", slotSend},
	{"slot_size", slotSize},
	{"slot_recv", slotRecv},
}

// stateOf is the guestState BindHost gave vm's linker.
func stateOf(vm *asvm.Instance) *guestState { return vm.Data().(*guestState) }

func fsMount(vm *asvm.Instance, args []int64) (int64, error) {
	if err := stateOf(vm).h.Mount(); err != nil {
		return -1, err
	}
	return 0, nil
}

func pathOpen(vm *asvm.Instance, args []int64) (int64, error) {
	path, err := vm.ReadString(args[0], args[1])
	if err != nil {
		return -1, err
	}
	s := stateOf(vm)
	return s.addFile(s.h.Open(path))
}

func pathCreate(vm *asvm.Instance, args []int64) (int64, error) {
	path, err := vm.ReadString(args[0], args[1])
	if err != nil {
		return -1, err
	}
	s := stateOf(vm)
	return s.addFile(s.h.Create(path))
}

func fdRead(vm *asvm.Instance, args []int64) (int64, error) {
	f := stateOf(vm).file(args[0])
	if f == nil {
		return -1, nil
	}
	buf, err := vm.Bytes(args[1], args[2])
	if err != nil {
		return -1, fmt.Errorf("%w: fd_read buffer oob", errWASI)
	}
	got, err := f.Read(buf)
	if err != nil && !errors.Is(err, io.EOF) {
		return -1, nil
	}
	return int64(got), nil
}

func fdWrite(vm *asvm.Instance, args []int64) (int64, error) {
	f := stateOf(vm).file(args[0])
	if f == nil {
		return -1, nil
	}
	buf, err := vm.Bytes(args[1], args[2])
	if err != nil {
		return -1, fmt.Errorf("%w: fd_write buffer oob", errWASI)
	}
	wrote, err := f.Write(buf)
	if err != nil {
		return -1, nil
	}
	return int64(wrote), nil
}

func fdSeek(vm *asvm.Instance, args []int64) (int64, error) {
	f := stateOf(vm).file(args[0])
	if f == nil {
		return -1, nil
	}
	pos, err := f.Seek(args[1], int(args[2]))
	if err != nil {
		return -1, nil
	}
	return pos, nil
}

func fdSize(vm *asvm.Instance, args []int64) (int64, error) {
	f := stateOf(vm).file(args[0])
	if f == nil {
		return -1, nil
	}
	n, err := f.Size()
	if err != nil {
		return -1, nil
	}
	return n, nil
}

func fdClose(vm *asvm.Instance, args []int64) (int64, error) {
	s := stateOf(vm)
	f := s.file(args[0])
	if f == nil {
		return -1, nil
	}
	s.files[args[0]-3] = nil
	if err := f.Close(); err != nil {
		return -1, nil
	}
	return 0, nil
}

func clockTimeGet(vm *asvm.Instance, args []int64) (int64, error) {
	t, err := stateOf(vm).h.Now()
	if err != nil {
		return -1, err
	}
	return t.UnixMicro(), nil
}

func procStdout(vm *asvm.Instance, args []int64) (int64, error) {
	buf, err := vm.Bytes(args[0], args[1])
	if err != nil {
		return -1, fmt.Errorf("%w: proc_stdout oob", errWASI)
	}
	wrote, err := stateOf(vm).h.Stdout(buf)
	if err != nil {
		return -1, err
	}
	return int64(wrote), nil
}

// buffer_register(slotPtr, slotLen, dataPtr, dataLen) and
// access_buffer(slotPtr, slotLen, dstPtr, dstCap) -> n: the by-name
// buffer interfaces, copies in and out of guest memory as in the paper
// (guests move data as bytes; the native AsBuffer stays zero-copy).

func bufferRegister(vm *asvm.Instance, args []int64) (int64, error) {
	slot, err := vm.ReadString(args[0], args[1])
	if err != nil {
		return -1, err
	}
	data, err := vm.Bytes(args[2], args[3])
	if err != nil {
		return -1, fmt.Errorf("%w: buffer_register oob", errWASI)
	}
	if err := stateOf(vm).h.RegisterBuffer(slot, data); err != nil {
		return -1, nil
	}
	return 0, nil
}

func accessBuffer(vm *asvm.Instance, args []int64) (int64, error) {
	slot, err := vm.ReadString(args[0], args[1])
	if err != nil {
		return -1, err
	}
	dst, err := vm.Bytes(args[2], args[3])
	if err != nil {
		return -1, fmt.Errorf("%w: access_buffer oob", errWASI)
	}
	n, err := stateOf(vm).h.AccessBuffer(slot, dst)
	if err != nil {
		return -1, nil
	}
	return int64(n), nil
}

// randomGet derives its value from the clock: guests only need "some"
// entropy for benchmark data generation.
func randomGet(vm *asvm.Instance, args []int64) (int64, error) {
	t, err := stateOf(vm).h.Now()
	if err != nil {
		return -1, err
	}
	return t.UnixNano()&0x7FFFFFFF | 1, nil
}

func slotSend(vm *asvm.Instance, args []int64) (int64, error) {
	s := stateOf(vm)
	edge := args[2]
	if edge < 0 || edge >= int64(len(s.out)) {
		return -1, fmt.Errorf("%w: out edge %d out of range", errWASI, edge)
	}
	data, err := vm.Bytes(args[0], args[1])
	if err != nil {
		return -1, fmt.Errorf("%w: slot_send oob", errWASI)
	}
	if err := s.h.Send(s.out[edge], data); err != nil {
		return -1, err
	}
	return 0, nil
}

func slotSize(vm *asvm.Instance, args []int64) (int64, error) {
	c, err := stateOf(vm).acquire(args[0])
	if err != nil {
		return -1, err
	}
	return int64(len(c.data)), nil
}

func slotRecv(vm *asvm.Instance, args []int64) (int64, error) {
	s := stateOf(vm)
	edge := args[2]
	c, err := s.acquire(edge)
	if err != nil {
		return -1, err
	}
	dst, err := vm.Bytes(args[0], args[1])
	if err != nil {
		return -1, fmt.Errorf("%w: slot_recv oob", errWASI)
	}
	s.held[edge] = inbound{}
	n, err := c.drain(dst)
	if err != nil {
		return -1, err
	}
	return int64(n), nil
}

// addFile gives a file path_open or path_create opened the next fd. A
// path the substrate refuses is a soft failure, -1 to the guest.
func (s *guestState) addFile(f GuestFile, err error) (int64, error) {
	if err != nil {
		return -1, nil
	}
	s.files = append(s.files, f)
	return int64(len(s.files)) + 2, nil
}

// file returns the open file behind fd, or nil.
func (s *guestState) file(fd int64) GuestFile {
	if fd < 3 || fd-3 >= int64(len(s.files)) {
		return nil
	}
	return s.files[fd-3]
}

// acquire returns in-edge edge's payload, receiving it on first use and
// holding it until slot_recv drains it.
func (s *guestState) acquire(edge int64) (inbound, error) {
	if edge < 0 || edge >= int64(len(s.in)) {
		return inbound{}, fmt.Errorf("%w: in edge %d out of range", errWASI, edge)
	}
	if c := s.held[edge]; c.drain != nil {
		return c, nil
	}
	data, drain, err := s.h.Recv(s.in[edge])
	if err != nil {
		return inbound{}, err
	}
	s.held[edge] = inbound{data: data, drain: drain}
	return s.held[edge], nil
}

// libosHost is the LibOS substrate. Payloads travel through the
// visor-installed transport, the same data plane native functions use,
// or directly as AsBuffers for envs built outside the visor. The
// guest-memory copy is inherent to the tier (guests move data as bytes,
// §7.2) and is charged to the transfer stage, not to the transport's
// copy counters.
type libosHost struct{ env *Env }

func (h libosHost) Mount() error { return MountFS(h.env) }

func (h libosHost) Open(path string) (GuestFile, error) {
	f, err := Open(h.env, path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (h libosHost) Create(path string) (GuestFile, error) {
	f, err := Create(h.env, path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (h libosHost) Stdout(b []byte) (int, error) { return Stdout(h.env, b) }

func (h libosHost) Now() (time.Time, error) { return Now(h.env) }

func (h libosHost) RegisterBuffer(slot string, data []byte) error {
	b, err := NewBuffer(h.env, slot, uint64(max(len(data), 1)))
	if err != nil {
		return err
	}
	copy(b.Bytes(), data)
	return nil
}

func (h libosHost) AccessBuffer(slot string, dst []byte) (int, error) {
	b, err := FromSlot(h.env, slot)
	if err != nil {
		return 0, err
	}
	n := copy(dst, b.Bytes())
	b.Free()
	return n, nil
}

func (h libosHost) Send(slot string, data []byte) error {
	t := h.env.Transport()
	var b *Buffer
	var err error
	if t != nil {
		b, err = t.Alloc(slot, uint64(max(len(data), 1)))
	} else {
		b, err = NewBuffer(h.env, slot, uint64(max(len(data), 1)))
	}
	if err != nil {
		return err
	}
	start := time.Now()
	copy(b.Bytes(), data)
	h.env.ChargeStage(metrics.StageTransfer, start, time.Since(start))
	if t != nil {
		return t.SendBuffer(b)
	}
	return nil
}

func (h libosHost) Recv(slot string) ([]byte, func([]byte) (int, error), error) {
	var data []byte
	var release func() error
	if t := h.env.Transport(); t != nil {
		d, r, err := t.Recv(slot)
		if err != nil {
			return nil, nil, err
		}
		data, release = d, r
	} else {
		b, err := FromSlot(h.env, slot)
		if err != nil {
			return nil, nil, err
		}
		data, release = b.Bytes(), b.Free
	}
	return data, func(dst []byte) (int, error) {
		start := time.Now()
		n := copy(dst, data)
		h.env.ChargeStage(metrics.StageTransfer, start, time.Since(start))
		return n, release()
	}, nil
}

// WASISlotImports extends WASIImports with the edge-indexed transfers.
const WASISlotImports = WASIImports + `
import slot_send 3 1
import slot_size 1 1
import slot_recv 3 1
`

// WASIImports declares the import table guest programs assemble against,
// in the order BindHost defines them. Keeping it here means a guest
// program and the host binding cannot drift apart.
const WASIImports = `
import fs_mount 0 1
import path_open 2 1
import path_create 2 1
import fd_read 3 1
import fd_write 3 1
import fd_seek 3 1
import fd_size 1 1
import fd_close 1 1
import clock_time_get 0 1
import proc_stdout 2 1
import buffer_register 4 1
import access_buffer 4 1
import random_get 0 1
`
