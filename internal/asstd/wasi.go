package asstd

import (
	"errors"
	"fmt"
	"io"
	"time"

	"alloystack/internal/asvm"
	"alloystack/internal/libos"
	"alloystack/internal/metrics"
	"alloystack/internal/vfs"
)

// This file is the adaptation layer between the ASVM guest runtime and
// as-std (paper §7.2): every host call a guest makes is forwarded to the
// same LibOS entry points native functions use, so C- and Python-tier
// functions cross the identical MPK boundary. Two custom interfaces,
// buffer_register and access_buffer, carry intermediate data — as in the
// paper, guests move data as strings/bytes (copies into and out of the
// guest's linear memory), while the native AsBuffer stays zero-copy.

// WASI host-call error sentinel (guest-visible calls return -1 on error;
// the Go error carries detail for diagnostics).
var errWASI = errors.New("asstd: wasi host call failed")

// guestFDs tracks file handles opened by one guest instance.
type guestState struct {
	env   *Env
	files map[int64]*File
	next  int64
}

// BindWASI defines the WASI-style host interface on l, routing through
// env. Call once per guest instantiation.
func BindWASI(l *asvm.Linker, env *Env) {
	gs := &guestState{env: env, files: make(map[int64]*File), next: 3}

	// path helpers read (ptr, len) strings out of guest memory.
	str := func(vm *asvm.Instance, ptr, n int64) (string, error) {
		return vm.ReadString(ptr, n)
	}

	l.Define("fs_mount", func(vm *asvm.Instance, args []int64) (int64, error) {
		if err := MountFS(env); err != nil {
			return -1, err
		}
		return 0, nil
	})

	l.Define("path_open", func(vm *asvm.Instance, args []int64) (int64, error) {
		path, err := str(vm, args[0], args[1])
		if err != nil {
			return -1, err
		}
		f, err := Open(env, path)
		if err != nil {
			return -1, nil // soft failure: guest sees -1
		}
		fd := gs.next
		gs.next++
		gs.files[fd] = f
		return fd, nil
	})

	l.Define("path_create", func(vm *asvm.Instance, args []int64) (int64, error) {
		path, err := str(vm, args[0], args[1])
		if err != nil {
			return -1, err
		}
		f, err := Create(env, path)
		if err != nil {
			return -1, nil
		}
		fd := gs.next
		gs.next++
		gs.files[fd] = f
		return fd, nil
	})

	l.Define("fd_read", func(vm *asvm.Instance, args []int64) (int64, error) {
		f, ok := gs.files[args[0]]
		if !ok {
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
	})

	l.Define("fd_write", func(vm *asvm.Instance, args []int64) (int64, error) {
		f, ok := gs.files[args[0]]
		if !ok {
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
	})

	l.Define("fd_seek", func(vm *asvm.Instance, args []int64) (int64, error) {
		f, ok := gs.files[args[0]]
		if !ok {
			return -1, nil
		}
		pos, err := f.Seek(args[1], int(args[2]))
		if err != nil {
			return -1, nil
		}
		return pos, nil
	})

	l.Define("fd_size", func(vm *asvm.Instance, args []int64) (int64, error) {
		f, ok := gs.files[args[0]]
		if !ok {
			return -1, nil
		}
		n, err := f.Size()
		if err != nil {
			return -1, nil
		}
		return n, nil
	})

	l.Define("fd_close", func(vm *asvm.Instance, args []int64) (int64, error) {
		f, ok := gs.files[args[0]]
		if !ok {
			return -1, nil
		}
		delete(gs.files, args[0])
		if err := f.Close(); err != nil {
			return -1, nil
		}
		return 0, nil
	})

	l.Define("clock_time_get", func(vm *asvm.Instance, args []int64) (int64, error) {
		t, err := Now(env)
		if err != nil {
			return -1, err
		}
		return t.UnixMicro(), nil
	})

	l.Define("proc_stdout", func(vm *asvm.Instance, args []int64) (int64, error) {
		buf, err := vm.Bytes(args[0], args[1])
		if err != nil {
			return -1, fmt.Errorf("%w: proc_stdout oob", errWASI)
		}
		wrote, err := Stdout(env, buf)
		if err != nil {
			return -1, err
		}
		return int64(wrote), nil
	})

	// buffer_register(slotPtr, slotLen, dataPtr, dataLen): copy guest
	// bytes into a freshly allocated AsBuffer under slot.
	l.Define("buffer_register", func(vm *asvm.Instance, args []int64) (int64, error) {
		slot, err := str(vm, args[0], args[1])
		if err != nil {
			return -1, err
		}
		data, err := vm.Bytes(args[2], args[3])
		if err != nil {
			return -1, fmt.Errorf("%w: buffer_register oob", errWASI)
		}
		b, err := NewBuffer(env, slot, uint64(max(len(data), 1)))
		if err != nil {
			return -1, nil
		}
		copy(b.Bytes(), data)
		return 0, nil
	})

	// access_buffer(slotPtr, slotLen, dstPtr, dstCap): copy the slot's
	// AsBuffer into guest memory, returning the byte count.
	l.Define("access_buffer", func(vm *asvm.Instance, args []int64) (int64, error) {
		slot, err := str(vm, args[0], args[1])
		if err != nil {
			return -1, err
		}
		dst, err := vm.Bytes(args[2], args[3])
		if err != nil {
			return -1, fmt.Errorf("%w: access_buffer oob", errWASI)
		}
		b, err := FromSlot(env, slot)
		if err != nil {
			return -1, nil
		}
		n := copy(dst, b.Bytes())
		b.Free()
		return int64(n), nil
	})

	l.Define("slot_send", func(vm *asvm.Instance, args []int64) (int64, error) {
		return -1, fmt.Errorf("%w: slot_send needs BindWASISlots", errWASI)
	})
	l.Define("slot_recv", func(vm *asvm.Instance, args []int64) (int64, error) {
		return -1, fmt.Errorf("%w: slot_recv needs BindWASISlots", errWASI)
	})
	l.Define("slot_size", func(vm *asvm.Instance, args []int64) (int64, error) {
		return -1, fmt.Errorf("%w: slot_size needs BindWASISlots", errWASI)
	})

	l.Define("random_get", func(vm *asvm.Instance, args []int64) (int64, error) {
		// Deterministic LCG seeded from the clock: guests only need
		// "some" entropy for benchmark data generation.
		t, err := Now(env)
		if err != nil {
			return -1, err
		}
		return t.UnixNano()&0x7FFFFFFF | 1, nil
	})

	_ = vfs.FD(0)
	_ = libos.Modules // keep the import shape explicit for the adaptation layer
}

// BindWASISlots binds the edge-indexed data-transfer imports on top of
// BindWASI. The guest addresses logical edges (0, 1, 2 …); the host —
// which knows the workflow topology — resolves them to AsBuffer slot
// names, the same division of labour Faasm's chaining API uses. Guests
// therefore need no string formatting to participate in a DAG.
//
//	slot_send(ptr, len, edge)        copy guest bytes out to outSlots[edge]
//	slot_size(edge) -> size          peek inSlots[edge]'s size (acquires
//	                                 and caches the buffer)
//	slot_recv(ptr, cap, edge) -> n   copy inSlots[edge]'s bytes into the
//	                                 guest (frees the cached buffer)
func BindWASISlots(l *asvm.Linker, env *Env, inSlots, outSlots []string) {
	BindWASI(l, env)

	// Inbound payloads are cached between slot_size (peek) and
	// slot_recv (drain). With a visor-installed transport the payload
	// arrives through the unified data plane — the same code path the
	// native tier uses — and the release closure recycles its backing
	// storage; the direct AsBuffer path remains for envs built outside
	// the visor. The guest-memory copy itself is inherent to the tier
	// (guests move data as bytes, §7.2) and is charged to the stage
	// clock, not to the transport's copy counters.
	type inbound struct {
		data    []byte
		release func() error
	}
	cached := make(map[int64]*inbound)

	acquire := func(edge int64) (*inbound, error) {
		if c, ok := cached[edge]; ok {
			return c, nil
		}
		if edge < 0 || edge >= int64(len(inSlots)) {
			return nil, fmt.Errorf("%w: in edge %d out of range", errWASI, edge)
		}
		var c *inbound
		if t := env.Transport(); t != nil {
			data, release, err := t.Recv(inSlots[edge])
			if err != nil {
				return nil, err
			}
			c = &inbound{data: data, release: release}
		} else {
			b, err := FromSlot(env, inSlots[edge])
			if err != nil {
				return nil, err
			}
			c = &inbound{data: b.Bytes(), release: b.Free}
		}
		cached[edge] = c
		return c, nil
	}

	l.Define("slot_send", func(vm *asvm.Instance, args []int64) (int64, error) {
		edge := args[2]
		if edge < 0 || edge >= int64(len(outSlots)) {
			return -1, fmt.Errorf("%w: out edge %d out of range", errWASI, edge)
		}
		data, err := vm.Bytes(args[0], args[1])
		if err != nil {
			return -1, fmt.Errorf("%w: slot_send oob", errWASI)
		}
		var b *Buffer
		if t := env.Transport(); t != nil {
			b, err = t.Alloc(outSlots[edge], uint64(max(len(data), 1)))
		} else {
			b, err = NewBuffer(env, outSlots[edge], uint64(max(len(data), 1)))
		}
		if err != nil {
			return -1, err
		}
		start := time.Now()
		copy(b.Bytes(), data)
		env.ChargeStage(metrics.StageTransfer, start, time.Since(start))
		if t := env.Transport(); t != nil {
			if err := t.SendBuffer(b); err != nil {
				return -1, err
			}
		}
		return 0, nil
	})

	l.Define("slot_size", func(vm *asvm.Instance, args []int64) (int64, error) {
		c, err := acquire(args[0])
		if err != nil {
			return -1, err
		}
		return int64(len(c.data)), nil
	})

	l.Define("slot_recv", func(vm *asvm.Instance, args []int64) (int64, error) {
		edge := args[2]
		c, err := acquire(edge)
		if err != nil {
			return -1, err
		}
		dst, err := vm.Bytes(args[0], args[1])
		if err != nil {
			return -1, fmt.Errorf("%w: slot_recv oob", errWASI)
		}
		start := time.Now()
		n := copy(dst, c.data)
		env.ChargeStage(metrics.StageTransfer, start, time.Since(start))
		delete(cached, edge)
		if err := c.release(); err != nil {
			return -1, err
		}
		return int64(n), nil
	})
}

// WASISlotImports extends WASIImports with the edge-indexed transfers.
const WASISlotImports = WASIImports + `
import slot_send 3 1
import slot_size 1 1
import slot_recv 3 1
`

// WASIImports declares the import table guest programs assemble against,
// in the order BindWASI defines them. Keeping it here means a guest
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
