package baselines

import (
	"fmt"
	"time"

	"alloystack/internal/asvm"
	"alloystack/internal/metrics"
	"alloystack/internal/workloads"
)

// runFaasmGuest executes the identical ASVM guest bytecode AlloyStack's
// C/Python tiers run, but on the Faasm platform model: host calls bind
// to Faasm's two-tier state (Platform.Send/Recv with page-fault charges)
// and its input files, and the AOT engine runs with WAVM's efficiency
// (OverheadFactor 1.0, the LLVM code generator of §8.5) for the C tier
// or the Python tier's interpretive factor, scaled like every other
// modelled cost by the run's CostScale.
func (r *Runner) runFaasmGuest(p *Platform) error {
	ctx := p.Ctx()
	prog, args, err := workloads.GuestProgram(ctx.Function, ctx)
	if err != nil {
		return err
	}
	in, out := workloads.GuestEdges(ctx.Function, ctx)

	l := asvm.NewLinker()
	bindFaasmHost(l, p, in, out)

	factor := 1.0 // WAVM / LLVM codegen
	if r.cfg.Language == "python" {
		factor = workloads.PyTier().OverheadFactor
	}
	inst, err := l.Instantiate(prog, asvm.Config{
		Engine:         asvm.EngineAOT,
		OverheadFactor: 1 + (factor-1)*r.cfg.CostScale,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	_, err = inst.Call("run", args...)
	p.clock.Add(metrics.StageCompute, time.Since(start))
	return err
}

// bindFaasmHost defines the guest host interface backed by the baseline
// platform: same import names as the AlloyStack WASI layer, different
// substrate underneath.
func bindFaasmHost(l *asvm.Linker, p *Platform, inSlots, outSlots []string) {
	type openFile struct {
		data []byte
		pos  int64
	}
	files := map[int64]*openFile{}
	nextFD := int64(3)
	cached := map[int64][]byte{}

	str := func(vm *asvm.Instance, ptr, n int64) (string, error) {
		return vm.ReadString(ptr, n)
	}

	l.Define("fs_mount", func(vm *asvm.Instance, args []int64) (int64, error) {
		return 0, nil
	})
	l.Define("path_open", func(vm *asvm.Instance, args []int64) (int64, error) {
		path, err := str(vm, args[0], args[1])
		if err != nil {
			return -1, err
		}
		data, err := p.ReadInput(path)
		if err != nil {
			return -1, nil
		}
		fd := nextFD
		nextFD++
		files[fd] = &openFile{data: data}
		return fd, nil
	})
	l.Define("path_create", func(vm *asvm.Instance, args []int64) (int64, error) {
		fd := nextFD
		nextFD++
		files[fd] = &openFile{}
		return fd, nil
	})
	l.Define("fd_read", func(vm *asvm.Instance, args []int64) (int64, error) {
		f, ok := files[args[0]]
		if !ok {
			return -1, nil
		}
		buf, err := vm.Bytes(args[1], args[2])
		if err != nil {
			return -1, fmt.Errorf("baselines: fd_read oob")
		}
		if f.pos >= int64(len(f.data)) {
			return 0, nil
		}
		c := copy(buf, f.data[f.pos:])
		f.pos += int64(c)
		return int64(c), nil
	})
	l.Define("fd_write", func(vm *asvm.Instance, args []int64) (int64, error) {
		f, ok := files[args[0]]
		if !ok {
			return -1, nil
		}
		buf, err := vm.Bytes(args[1], args[2])
		if err != nil {
			return -1, fmt.Errorf("baselines: fd_write oob")
		}
		f.data = append(f.data[:f.pos], buf...)
		f.pos += int64(len(buf))
		return int64(len(buf)), nil
	})
	l.Define("fd_seek", func(vm *asvm.Instance, args []int64) (int64, error) {
		f, ok := files[args[0]]
		if !ok {
			return -1, nil
		}
		switch args[2] {
		case 0:
			f.pos = args[1]
		case 1:
			f.pos += args[1]
		case 2:
			f.pos = int64(len(f.data)) + args[1]
		}
		return f.pos, nil
	})
	l.Define("fd_size", func(vm *asvm.Instance, args []int64) (int64, error) {
		f, ok := files[args[0]]
		if !ok {
			return -1, nil
		}
		return int64(len(f.data)), nil
	})
	l.Define("fd_close", func(vm *asvm.Instance, args []int64) (int64, error) {
		delete(files, args[0])
		return 0, nil
	})
	l.Define("clock_time_get", func(vm *asvm.Instance, args []int64) (int64, error) {
		return time.Now().UnixMicro(), nil
	})
	l.Define("proc_stdout", func(vm *asvm.Instance, args []int64) (int64, error) {
		s, err := str(vm, args[0], args[1])
		if err != nil {
			return -1, err
		}
		p.Print("%s", s)
		return int64(len(s)), nil
	})
	l.Define("buffer_register", func(vm *asvm.Instance, args []int64) (int64, error) {
		return -1, fmt.Errorf("baselines: guests use slot_send on Faasm")
	})
	l.Define("access_buffer", func(vm *asvm.Instance, args []int64) (int64, error) {
		return -1, fmt.Errorf("baselines: guests use slot_recv on Faasm")
	})
	l.Define("random_get", func(vm *asvm.Instance, args []int64) (int64, error) {
		return time.Now().UnixNano()&0x7FFFFFFF | 1, nil
	})
	l.Define("slot_send", func(vm *asvm.Instance, args []int64) (int64, error) {
		edge := args[2]
		if edge < 0 || edge >= int64(len(outSlots)) {
			return -1, fmt.Errorf("baselines: out edge %d out of range", edge)
		}
		data, err := vm.Bytes(args[0], args[1])
		if err != nil {
			return -1, fmt.Errorf("baselines: slot_send oob")
		}
		if err := p.Send(outSlots[edge], data); err != nil {
			return -1, err
		}
		return 0, nil
	})
	acquire := func(edge int64) ([]byte, error) {
		if d, ok := cached[edge]; ok {
			return d, nil
		}
		if edge < 0 || edge >= int64(len(inSlots)) {
			return nil, fmt.Errorf("baselines: in edge %d out of range", edge)
		}
		d, err := p.Recv(inSlots[edge])
		if err != nil {
			return nil, err
		}
		cached[edge] = d
		return d, nil
	}
	l.Define("slot_size", func(vm *asvm.Instance, args []int64) (int64, error) {
		d, err := acquire(args[0])
		if err != nil {
			return -1, err
		}
		return int64(len(d)), nil
	})
	l.Define("slot_recv", func(vm *asvm.Instance, args []int64) (int64, error) {
		edge := args[2]
		d, err := acquire(edge)
		if err != nil {
			return -1, err
		}
		dst, err := vm.Bytes(args[0], args[1])
		if err != nil {
			return -1, fmt.Errorf("baselines: slot_recv oob")
		}
		n := copy(dst, d)
		delete(cached, edge)
		return int64(n), nil
	})
}
