package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/asvm"
	"alloystack/internal/baselines"
	"alloystack/internal/blockdev"
	"alloystack/internal/fatfs"
	"alloystack/internal/netstack"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// Table1 traces which as-libos modules each ServerlessBench-style
// function pulls in, reproducing the paper's Table 1 with this
// repository's module set (Table 2 names).
func Table1(o Options) (*Result, error) {
	o = o.withDefaults()
	reg := visor.NewRegistry()
	hub := netstack.NewHub()
	nextIP := byte(1)

	// Probe functions exercising the characteristic syscall mix of each
	// Table 1 entry.
	probes := []struct {
		name string
		fn   visor.NativeFunc
	}{
		{"alu", func(env *asstd.Env, ctx visor.FuncContext) error {
			b, err := asstd.NewBuffer(env, "alu", 4096)
			if err != nil {
				return err
			}
			for i := range b.Bytes() {
				b.Bytes()[i] = byte(i * i)
			}
			return b.Free()
		}},
		{"parallel-alu", func(env *asstd.Env, ctx visor.FuncContext) error {
			if _, err := asstd.Now(env); err != nil {
				return err
			}
			b, err := asstd.NewBuffer(env, "palu", 4096)
			if err != nil {
				return err
			}
			return b.Free()
		}},
		{"long-chain", func(env *asstd.Env, ctx visor.FuncContext) error {
			b, err := asstd.NewBuffer(env, "lc", 64)
			if err != nil {
				return err
			}
			return b.Free()
		}},
		{"extract-image-metadata", func(env *asstd.Env, ctx visor.FuncContext) error {
			if _, err := asstd.Now(env); err != nil {
				return err
			}
			if err := asstd.MountFS(env); err != nil {
				return err
			}
			if err := asstd.WriteFile(env, "/IMG.BIN", make([]byte, 4096)); err != nil {
				return err
			}
			_, err := asstd.LocalIP(env)
			return err
		}},
		{"transform-metadata", func(env *asstd.Env, ctx visor.FuncContext) error {
			if _, err := asstd.Now(env); err != nil {
				return err
			}
			b, err := asstd.NewBuffer(env, "tm", 512)
			if err != nil {
				return err
			}
			return b.Free()
		}},
		{"handler", func(env *asstd.Env, ctx visor.FuncContext) error {
			if _, err := asstd.Now(env); err != nil {
				return err
			}
			if _, err := asstd.NewBuffer(env, "h", 128); err != nil {
				return err
			}
			_, err := asstd.LocalIP(env)
			return err
		}},
		{"thumbnail", func(env *asstd.Env, ctx visor.FuncContext) error {
			if _, err := asstd.Now(env); err != nil {
				return err
			}
			if err := asstd.MountFS(env); err != nil {
				return err
			}
			if err := asstd.WriteFile(env, "/THUMB.BIN", make([]byte, 1024)); err != nil {
				return err
			}
			_, err := asstd.LocalIP(env)
			return err
		}},
		{"store-image-metadata", func(env *asstd.Env, ctx visor.FuncContext) error {
			if _, err := asstd.Now(env); err != nil {
				return err
			}
			if _, err := asstd.NewBuffer(env, "sim", 256); err != nil {
				return err
			}
			_, err := asstd.LocalIP(env)
			return err
		}},
		{"online-compiling", func(env *asstd.Env, ctx visor.FuncContext) error {
			if _, err := asstd.Now(env); err != nil {
				return err
			}
			if err := asstd.MountFS(env); err != nil {
				return err
			}
			if err := asstd.WriteFile(env, "/OBJ.BIN", make([]byte, 2048)); err != nil {
				return err
			}
			if _, err := asstd.LocalIP(env); err != nil {
				return err
			}
			if _, err := asstd.Stdout(env, []byte("compiled\n")); err != nil {
				return err
			}
			_, err := asstd.MmapFile(env, "/OBJ.BIN", 0)
			return err
		}},
	}

	rep := newResult("table1", "as-libos modules loaded per serverless function (paper Table 1)")
	rep.Header = []string{"Function", "Loaded modules"}
	for _, p := range probes {
		reg.RegisterNative(p.name, p.fn)
		v := visor.New(reg)
		w := workloads.NoOps()
		w.Functions[0].Name = p.name
		ip := netstack.IP(10, 77, 0, nextIP)
		nextIP++
		res := make(chan error, 1)
		ro := alloyOpts(o, func(r *visor.RunOptions) {
			r.CostScale = 0 // tracing, not timing
			r.DiskImage = blockdev.NewMemDisk(8 << 20)
			r.Hub = hub
			r.IP = ip
		})
		// Run on a fresh WFD and collect the loader trace.
		runRes, err := v.RunWorkflow(w, ro)
		_ = runRes
		res <- err
		if err := <-res; err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		// RunWorkflow destroys the WFD; trace module loads by running
		// again with a namespace we keep. Simpler: rebuild via core.
		mods, err := traceModules(o, p.fn, ip, hub)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", p.name, err)
		}
		rep.Rows = append(rep.Rows, []string{p.name, strings.Join(mods, ", ")})
		// On-demand loading is the point of Table 1: a probe pulling in
		// one module more than the golden records fails the gate.
		rep.count(countKey("modules", p.name), int64(len(mods)))
	}
	return emit(o, rep), nil
}

// traceModules runs fn on a fresh WFD and returns the loaded module set.
func traceModules(o Options, fn visor.NativeFunc, ip netstack.Addr, hub *netstack.Hub) ([]string, error) {
	wfd, err := newWFD(o, ip, hub)
	if err != nil {
		return nil, err
	}
	defer wfd.Destroy()
	if err := wfd.Run("probe", func(env *asstd.Env) error {
		return fn(env, visor.FuncContext{Function: "probe"})
	}); err != nil {
		return nil, err
	}
	return wfd.NS.LoadedModules(), nil
}

// Fig2 prints the software-stack startup comparison (paper Figure 2):
// modelled constants for the hardware-gated stacks, measured latency for
// AlloyStack.
func Fig2(o Options) (*Result, error) {
	o = o.withDefaults()
	costs := baselines.DefaultCosts()
	asCold, res, err := measureASColdStart(o, false, false)
	if err != nil {
		return nil, err
	}
	rep := newResult("fig2", "startup latency across software stacks (paper Fig 2)")
	rep.alloyCounts("alloystack", res)
	rep.Header = []string{"Stack", "Startup (ms)", "Source"}
	rep.Rows = [][]string{
		{"MicroVM (device model + guest kernel)",
			ms(costs.MicroVMBoot), "model [paper 1186ms]"},
		{"Unikernel (Unikraft/Firecracker)",
			ms(costs.UnikraftBoot), "model [paper 137ms]"},
		{"Virtines (KVM, no guest kernel)",
			ms(costs.VirtinesBoot), "model [paper 22.8ms]"},
		{"AlloyStack WFD (on-demand LibOS)",
			ms(asCold), "measured"},
	}
	return emit(o, rep), nil
}

// Fig3 measures the four communication primitives of §2.3 across sizes.
func Fig3(o Options) (*Result, error) {
	o = o.withDefaults()
	paperSizes := []int64{4 << 10, 1 << 20, 16 << 20, 64 << 20}
	rep := newResult("fig3", "communication primitive latency (paper Fig 3)")
	rep.Header = []string{"Size", "Inter-VM TCP (us)", "Inter-Proc TCP (us)",
		"Shared Memory (us)", "Function Call (us)"}
	rep.Notes = []string{
		"function call and shared memory run real code; TCP rows use the host loopback;",
		"the Inter-VM row adds the modelled virtualisation cost per transfer.",
	}
	for _, paper := range paperSizes {
		size := o.size(paper)
		ivtcp, err := measureLoopbackTCP(size, true, o.CostScale, o.Clock)
		if err != nil {
			return nil, err
		}
		iptcp, err := measureLoopbackTCP(size, false, o.CostScale, o.Clock)
		if err != nil {
			return nil, err
		}
		shm, err := measureSharedMemory(size, o.Clock)
		if err != nil {
			return nil, err
		}
		fc := measureFunctionCall(size, o.Clock)
		label := humanBytes(size)
		rep.Rows = append(rep.Rows, []string{
			label,
			us(ivtcp), us(iptcp), us(shm), us(fc),
		})
		// All four primitives run host or plain Go code; what is ours is
		// the size each row moves and the VM exits the model charges.
		// Keyed by the paper's size: small scales clamp rows together.
		rep.count(countKey("payload_bytes", humanBytes(paper)), size)
		rep.count(countKey("modelled_vm_exits", humanBytes(paper)), vmExits(size))
	}
	return emit(o, rep), nil
}

// measureLoopbackTCP transfers size bytes over a fresh host-loopback TCP
// connection. vm=true adds the modelled inter-VM virtualisation costs.
func measureLoopbackTCP(size int64, vm bool, costScale float64, now func() time.Time) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 256*1024)
		var got int64
		for got < size {
			n, err := c.Read(buf)
			got += int64(n)
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	start := now()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	payload := make([]byte, size)
	if _, err := c.Write(payload); err != nil {
		return 0, err
	}
	if err := <-done; err != nil {
		return 0, err
	}
	c.Close()
	d := now().Sub(start)
	if vm && costScale > 0 {
		// Virtio queue kicks and VM exits per 64 KiB segment batch plus
		// connection setup through two guest kernels [est].
		d += time.Duration(float64(vmExits(size)*25+200) * float64(time.Microsecond) * costScale)
	}
	return d, nil
}

// vmExits is the number of VM exits the inter-VM model charges a
// transfer: one per 64 KiB segment batch plus one.
func vmExits(size int64) int64 { return size/(64<<10) + 1 }

// measureSharedMemory reproduces the paper's method (3): a pre-shared
// buffer, a one-byte pipe notification, and a full traversal by the
// receiver.
func measureSharedMemory(size int64, now func() time.Time) (time.Duration, error) {
	shared := make([]byte, size)
	rd, wr, err := os.Pipe()
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	defer wr.Close()
	done := make(chan byte, 1)
	go func() {
		var b [1]byte
		rd.Read(b[:])
		done <- traverse(shared)
	}()
	// Data initialisation happens before the measured window, as in §2.3.
	for i := range shared {
		shared[i] = byte(i)
	}
	start := now()
	wr.Write([]byte{1})
	<-done
	return now().Sub(start), nil
}

// measureFunctionCall is method (4): the sender writes a buffer and
// directly invokes the receiver, which traverses it — plain loads and
// stores in one address space.
func measureFunctionCall(size int64, now func() time.Time) time.Duration {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	start := now()
	// KeepAlive consumes the result, so the loop cannot be dropped as dead.
	runtime.KeepAlive(traverse(buf))
	return now().Sub(start)
}

// traverse is the receiver's full traversal in methods (3) and (4): one
// load per byte, XOR-folded into a result the caller consumes.
func traverse(b []byte) byte {
	sum := byte(0)
	for _, v := range b {
		sum ^= v
	}
	return sum
}

// measureASColdStart instantiates a no-ops workflow and reports the
// cold-start latency (event to user code) with the last run's result.
func measureASColdStart(o Options, loadAll bool, python bool) (time.Duration, *visor.RunResult, error) {
	v := newAlloyVisor()
	lang := "native"
	if python {
		lang = "python"
	}
	w := workloads.NoOps()
	w.Functions[0].Language = lang

	samples := make([]time.Duration, 0, o.Iterations)
	var res *visor.RunResult
	for i := 0; i < o.Iterations; i++ {
		ro := alloyOpts(o, func(r *visor.RunOptions) {
			r.OnDemand = !loadAll
		})
		if loadAll || python {
			img, err := workloads.BuildEmptyImage(python)
			if err != nil {
				return 0, nil, err
			}
			ro.DiskImage = img
		}
		if loadAll {
			hub := netstack.NewHub()
			ro.Hub = hub
			ro.IP = netstack.IP(10, 99, 0, byte(i+1))
		}
		var err error
		if res, err = v.RunWorkflow(w, ro); err != nil {
			return 0, nil, err
		}
		cold := res.ColdStart
		if python {
			// For the Python tier the paper counts runtime init in the
			// startup path; our runtime-image read happens inside the
			// function, so charge the whole invocation.
			cold = res.E2E
		}
		samples = append(samples, cold)
	}
	return median(samples), res, nil
}

// Fig10 reproduces the cold-start comparison.
func Fig10(o Options) (*Result, error) {
	o = o.withDefaults()
	rep := newResult("fig10", "cold start latency (paper Fig 10)")
	rep.Header = []string{"System", "Cold start (ms)", "Source"}
	var cold [3]time.Duration
	for i, arm := range []struct {
		name, source    string
		loadAll, python bool
	}{
		{"AlloyStack", "measured [paper 1.3ms]", false, false},
		{"AS-load-all", "measured [paper 89.4ms]", true, false},
		{"AS-Py", "measured (runtime image via fatfs)", false, true},
	} {
		d, res, err := measureASColdStart(o, arm.loadAll, arm.python)
		if err != nil {
			return nil, err
		}
		cold[i] = d
		rep.alloyCounts(arm.name, res)
		rep.Rows = append(rep.Rows, []string{arm.name, ms(d), arm.source})
	}
	asCold, loadAll := cold[0], cold[1]
	models := baselines.ColdStartOnly(baselines.DefaultCosts())
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return models[names[i]] < models[names[j]] })
	for _, n := range names {
		rep.Rows = append(rep.Rows, []string{n,
			ms(time.Duration(float64(models[n]) * o.CostScale)), "model"})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("on-demand saving: load-all %.1fms vs on-demand %.1fms (paper: 89.4 vs 1.3)",
			float64(loadAll)/1e6, float64(asCold)/1e6))
	return emit(o, rep), nil
}

// Table4 measures the LibOS substrates against the host-kernel paths:
// fatfs vs ext4-model and the userspace netstack vs real loopback TCP.
func Table4(o Options) (*Result, error) {
	o = o.withDefaults()
	const fileSize = 32 << 20
	fatRead, fatWrite, disk, err := measureFatfsThroughput(fileSize, o.Clock)
	if err != nil {
		return nil, err
	}
	rxBps, txBps, err := measureNetstackThroughput(16<<20, o.Clock)
	if err != nil {
		return nil, err
	}
	loopRx, err := measureLoopbackThroughput(16<<20, o.Clock)
	if err != nil {
		return nil, err
	}
	costs := baselines.DefaultCosts()
	mbps := func(bps float64) string { return fmt.Sprintf("%.0f", bps/(1<<20)) }
	gbps := func(bps float64) string { return fmt.Sprintf("%.3f", bps*8/1e9) }
	rep := newResult("table4", "LibOS substrate performance vs host kernel (paper Table 4)")
	rep.Header = []string{"Layer", "Module", "Read/RX", "Write/TX", "Unit"}
	rep.Rows = [][]string{
		{"File system", "fatfs (measured)", mbps(fatRead), mbps(fatWrite), "MB/s"},
		{"File system", "ext4 (model)", mbps(float64(costs.Ext4ReadBps)), mbps(float64(costs.Ext4WriteBps)), "MB/s"},
		{"TCP", "netstack (measured)", gbps(rxBps), gbps(txBps), "Gbit/s"},
		{"TCP", "host loopback (measured)", gbps(loopRx), gbps(loopRx), "Gbit/s"},
	}
	rep.Notes = []string{
		"paper: rust-fatfs 362/1562 MB/s vs ext4 1351/1282; smoltcp 1.751/5.366 Gbit/s vs Linux 27.76/28.56",
		"shape check: the LibOS filesystem and TCP stack are slower than the kernel paths",
	}
	// What fatfs asked of the device for those throughputs: mkfs, one
	// 32 MiB write, one 32 MiB read. The netstack's byte and frame
	// counters stay out: they include retransmissions, which timing
	// decides (rx bytes moved under -race).
	reads, writes, bytesRead, bytesWritten := disk.Stats()
	rep.count("blockdev_reads", reads)
	rep.count("blockdev_writes", writes)
	rep.count("blockdev_bytes_read", bytesRead)
	rep.count("blockdev_bytes_written", bytesWritten)
	return emit(o, rep), nil
}

func measureFatfsThroughput(size int64, now func() time.Time) (readBps, writeBps float64, disk *blockdev.Counting, err error) {
	// Measure through the same shaped device workloads mount (the
	// calibration that keeps fatfs at the paper's Table 4 read speed).
	disk = &blockdev.Counting{Inner: blockdev.NewMemDisk(size*2 + (16 << 20))}
	fs, err := fatfs.Format(workloads.ShapeImage(disk), fatfs.MkfsOptions{})
	if err != nil {
		return 0, 0, nil, err
	}
	payload := make([]byte, size)
	f, err := fs.Create("TPUT.BIN")
	if err != nil {
		return 0, 0, nil, err
	}
	start := now()
	if _, err := f.WriteAt(payload, 0); err != nil {
		return 0, 0, nil, err
	}
	writeBps = float64(size) / now().Sub(start).Seconds()
	buf := make([]byte, size)
	start = now()
	if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		return 0, 0, nil, err
	}
	readBps = float64(size) / now().Sub(start).Seconds()
	return readBps, writeBps, disk, nil
}

func measureNetstackThroughput(size int64, now func() time.Time) (rxBps, txBps float64, err error) {
	hub := netstack.NewHub()
	n1, err := hub.Attach(netstack.IP(10, 66, 0, 1))
	if err != nil {
		return 0, 0, err
	}
	n2, err := hub.Attach(netstack.IP(10, 66, 0, 2))
	if err != nil {
		return 0, 0, err
	}
	s1, s2 := netstack.NewStack(n1), netstack.NewStack(n2)
	defer s1.Close()
	defer s2.Close()
	l, err := s2.Listen(9)
	if err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 256*1024)
		var got int64
		for got < size {
			n, err := c.Read(buf)
			got += int64(n)
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c, err := s1.Dial(netstack.Endpoint{Addr: s2.Addr(), Port: 9})
	if err != nil {
		return 0, 0, err
	}
	chunk := make([]byte, 256*1024)
	start := now()
	var sent int64
	for sent < size {
		n, err := c.Write(chunk)
		sent += int64(n)
		if err != nil {
			return 0, 0, err
		}
	}
	if err := <-done; err != nil {
		return 0, 0, err
	}
	elapsed := now().Sub(start).Seconds()
	bps := float64(size) / elapsed
	// One-directional stream: RX and TX observe the same goodput.
	return bps, bps, nil
}

func measureLoopbackThroughput(size int64, now func() time.Time) (float64, error) {
	d, err := measureLoopbackTCP(size, false, 0, now)
	if err != nil {
		return 0, err
	}
	return float64(size) / d.Seconds(), nil
}

// Engines is the extra ablation explaining Figure 13's tier gaps: the
// same guest program on the AOT engine bare (WAVM model), with the C
// tier's factor (Wasmtime model) and with the Python tier's. The switch
// interpreter, the engines' reference semantics, is reported in a note.
func Engines(o Options) (*Result, error) {
	o = o.withDefaults()
	prog := asvm.MustAssemble(`
memory 4096
func spin 1 3 1
  push 0
  local.set 1
  push 0
  local.set 2
eloop:
  local.get 2
  local.get 0
  lt
  jz edone
  local.get 1
  local.get 2
  xor
  local.set 1
  local.get 2
  push 1
  add
  local.set 2
  jmp eloop
edone:
  local.get 1
  ret
end
`)
	iters := int64(3_000_000)
	// The fastest of three calls: the table is about ratios of pure
	// compute, which one descheduled call on a shared host would skew.
	run := func(engine asvm.EngineKind, factor float64) (time.Duration, int64, error) {
		inst, err := asvm.NewLinker().Instantiate(prog, asvm.Config{
			Engine: engine, OverheadFactor: factor,
		})
		if err != nil {
			return 0, 0, err
		}
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := o.now()
			if _, err := inst.Call("spin", iters); err != nil {
				return 0, 0, err
			}
			best = min(best, o.since(start))
		}
		return best, inst.Steps(), nil
	}
	cFactor, pyFactor := workloads.CTier().OverheadFactor, workloads.PyTier().OverheadFactor
	rep := newResult("engines", "guest engine ablation (explains Fig 13's Wasmtime vs WAVM gap)")
	var times [4]time.Duration
	for i, arm := range []struct {
		name   string
		engine asvm.EngineKind
		factor float64
	}{{"wavm", asvm.EngineAOT, 1.0}, {"wasmtime", asvm.EngineAOT, cFactor},
		{"python", asvm.EngineAOT, pyFactor}, {"interp", asvm.EngineInterp, 1.0}} {
		d, steps, err := run(arm.engine, arm.factor)
		if err != nil {
			return nil, err
		}
		times[i] = d
		// Guest instructions retired over the three calls: the factor
		// models a slower engine, never more work, and the two engines
		// must agree on what a step is.
		rep.count(countKey("guest_steps", arm.name), steps)
	}
	wavm, wasmtime, py, interp := times[0], times[1], times[2], times[3]
	ratio := func(d time.Duration) float64 { return float64(d) / float64(wavm) }
	rep.Header = []string{"Engine", "Time (ms)", "vs WAVM-model"}
	rep.Rows = [][]string{
		{"AOT factor 1.0 (WAVM/LLVM model)", ms(wavm), "1.00x"},
		{fmt.Sprintf("AOT factor %.2g (Wasmtime/Cranelift model, C tier)", cFactor),
			ms(wasmtime), fmt.Sprintf("%.2fx", ratio(wasmtime))},
		{fmt.Sprintf("AOT factor %.2g (interpretive model, Python tier)", pyFactor),
			ms(py), fmt.Sprintf("%.2fx", ratio(py))},
	}
	rep.Notes = []string{
		"paper §8.5: Wasmtime measured ≈30% slower than WAVM",
		fmt.Sprintf("switch interpreter (the reference semantics, no factor): %.3f ms, %.2fx the AOT engine",
			float64(interp)/float64(time.Millisecond), ratio(interp)),
	}
	return emit(o, rep), nil
}
