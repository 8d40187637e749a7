package baselines

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"alloystack/internal/dag"
	"alloystack/internal/kvstore"
	"alloystack/internal/metrics"
	"alloystack/internal/visor"
	"alloystack/internal/xfer"
)

// Errors returned by the baseline runner.
var (
	ErrNoInput     = errors.New("baselines: input file not staged")
	ErrSlotMissing = errors.New("baselines: no data under slot")
)

// Config configures a baseline platform instance.
type Config struct {
	System System
	Costs  CostTable
	// CostScale scales injected costs; 0 disables them (unit tests).
	CostScale float64
	// Language selects the tier: "native" for OpenFaaS/Faastlane,
	// "c"/"python" for Faasm.
	Language string
	// Inputs stages the host-filesystem files (the ext4 model).
	Inputs map[string][]byte
	// Stdout receives function output.
	Stdout io.Writer
	// WarmSandbox skips the per-workflow sandbox boot (a pre-started
	// MicroVM/process), isolating steady-state differences the way the
	// paper's Figure 16 does.
	WarmSandbox bool
}

// Result mirrors visor.RunResult for cross-system comparisons.
type Result struct {
	E2E       time.Duration
	ColdStart time.Duration
	Clock     *metrics.StageClock
	// Transfer counts data-plane traffic by transport kind: "kv" for
	// store-mediated edges (shared with the unified data plane), plus
	// the baseline-only kinds "local" (in-process reference/shared
	// mapping) and "ipc" (Faastlane pipes).
	Transfer *metrics.TransportStats
}

// Runner executes workflows on one modelled baseline platform. The
// external store (for OpenFaaS and Faasm cross-function state) is a real
// TCP key-value server on loopback, started once per Runner.
type Runner struct {
	cfg Config

	store  *kvstore.Server
	client *kvstore.Client

	mu    sync.Mutex
	local map[string][]byte   // reference-passing / shared-memory slots
	pipes map[string]*ipcPipe // Faastlane IPC edges
}

// NewRunner builds a platform. Close releases the store.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Stdout == nil {
		cfg.Stdout = io.Discard
	}
	if cfg.Language == "" {
		cfg.Language = "native"
	}
	r := &Runner{
		cfg:   cfg,
		local: make(map[string][]byte),
		pipes: make(map[string]*ipcPipe),
	}
	if cfg.System == SysOpenFaaS || cfg.System == SysOpenFaaSGVisor || cfg.System == SysFaasm {
		store, err := kvstore.NewServer("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		client, err := kvstore.Dial(store.Addr())
		if err != nil {
			store.Close()
			return nil, err
		}
		r.store = store
		r.client = client
	}
	return r, nil
}

// Close releases platform resources.
func (r *Runner) Close() {
	if r.client != nil {
		r.client.Close()
	}
	if r.store != nil {
		r.store.Close()
	}
	r.mu.Lock()
	for _, p := range r.pipes {
		p.close()
	}
	r.pipes = map[string]*ipcPipe{}
	r.mu.Unlock()
}

// System reports which platform this runner models.
func (r *Runner) System() System { return r.cfg.System }

// perWorkflowColdStart is charged once per invocation.
func (r *Runner) perWorkflowColdStart() time.Duration {
	c := r.cfg.Costs
	switch r.cfg.System {
	case SysFaastlane, SysFaastlaneRefer, SysFaastlaneIPC:
		return c.FaastlaneProc
	case SysFaastlaneKata, SysFaastlaneReferKata:
		return c.FaastlaneProc + c.MicroVMBoot
	}
	return 0
}

// perInstanceColdStart is charged for every function instance.
func (r *Runner) perInstanceColdStart() time.Duration {
	c := r.cfg.Costs
	switch r.cfg.System {
	case SysOpenFaaS:
		return c.ContainerBoot + c.GatewayForward
	case SysOpenFaaSGVisor:
		return c.GVisorBoot + c.GatewayForward
	case SysFaastlane, SysFaastlaneRefer, SysFaastlaneIPC,
		SysFaastlaneKata, SysFaastlaneReferKata:
		return c.FaastlaneThread
	case SysFaasm:
		d := c.FaasmFuncStart + c.FaasmControlPlane
		if r.cfg.Language == "python" {
			d += c.PythonInit
		}
		return d
	}
	return 0
}

// computeFactor inflates compute for virtualised platforms.
func (r *Runner) computeFactor() float64 {
	switch r.cfg.System {
	case SysOpenFaaSGVisor:
		return r.cfg.Costs.GVisorComputeFactor
	case SysFaastlaneKata, SysFaastlaneReferKata:
		return r.cfg.Costs.KataComputeFactor
	}
	return 1.0
}

// RunWorkflow executes w on the modelled platform with the same
// stage-barrier orchestration the visor uses.
func (r *Runner) RunWorkflow(w *dag.Workflow) (*Result, error) {
	stages, err := w.Stages()
	if err != nil {
		return nil, err
	}
	res := &Result{Clock: metrics.NewStageClock(), Transfer: metrics.NewTransportStats()}
	start := time.Now()

	// Store-mediated edges ride the same kv transport the unified data
	// plane uses, so the copy accounting is directly comparable with
	// AlloyStack runs (Figure 11's copies column).
	var kvT xfer.Transport
	if r.client != nil {
		kvT = xfer.NewKV(r.client, nil, res.Transfer)
	}

	// Faastlane switches from reference passing to IPC when the
	// workflow has parallel execution phases (§8.1: it forks a
	// subprocess per function in parallel phases). The decision is
	// per-workflow so both endpoints of every edge agree.
	anyParallel := false
	for _, stage := range stages {
		for _, spec := range stage {
			if spec.InstancesOf() > 1 {
				anyParallel = true
			}
		}
	}

	// Workflow-level cold start (process/VM boot), unless pre-warmed.
	if !r.cfg.WarmSandbox {
		wfCold := r.perWorkflowColdStart()
		charge(wfCold, r.cfg.CostScale)
		res.ColdStart = scaled(wfCold, r.cfg.CostScale)
	}

	for si, stage := range stages {
		var wg sync.WaitGroup
		errCh := make(chan error, 64)
		var doneMu sync.Mutex
		var firstDone, lastDone time.Time
		for _, spec := range stage {
			n := spec.InstancesOf()
			for i := 0; i < n; i++ {
				ctx := visor.FuncContext{
					Workflow:  w.Name,
					Function:  spec.Name,
					Instance:  i,
					Instances: n,
					Stage:     si,
					Params:    spec.Params,
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() {
						if rec := recover(); rec != nil {
							errCh <- fmt.Errorf("baselines: %s fault: %v", ctx.Function, rec)
						}
					}()
					// Instance-level cold start.
					inst := r.perInstanceColdStart()
					charge(inst, r.cfg.CostScale)
					doneMu.Lock()
					res.ColdStart += scaled(inst, r.cfg.CostScale)
					doneMu.Unlock()

					// Parallel phases fork a subprocess per function on
					// the IPC-mode Faastlane variants (§8.1).
					if anyParallel && r.ipcMode() {
						charge(r.cfg.Costs.FaastlaneFork, r.cfg.CostScale)
					}
					p := &Platform{r: r, ctx: ctx, clock: res.Clock, parallel: anyParallel, kv: kvT, stats: res.Transfer}
					if err := r.execute(p); err != nil {
						errCh <- err
					}
					doneMu.Lock()
					now := time.Now()
					if firstDone.IsZero() {
						firstDone = now
					}
					lastDone = now
					doneMu.Unlock()
				}()
			}
		}
		wg.Wait()
		close(errCh)
		for e := range errCh {
			return nil, e
		}
		if !firstDone.IsZero() {
			res.Clock.Add(metrics.StageWait, lastDone.Sub(firstDone))
		}
	}
	res.E2E = time.Since(start)
	return res, nil
}

// execute dispatches to the app implementation for the function.
func (r *Runner) execute(p *Platform) error {
	if r.cfg.System == SysFaasm && r.cfg.Language != "native" {
		return r.runFaasmGuest(p)
	}
	return runNativeApp(p)
}

// ---- Platform: the API baseline app code runs against -------------------

// Platform is one function instance's view of its baseline platform.
type Platform struct {
	r        *Runner
	ctx      visor.FuncContext
	clock    *metrics.StageClock
	parallel bool
	kv       xfer.Transport          // store-mediated edges (nil when no store)
	stats    *metrics.TransportStats // local/ipc copy accounting
}

// Ctx exposes the function context.
func (p *Platform) Ctx() visor.FuncContext { return p.ctx }

// ReadInput reads a staged host file through the ext4 model.
func (p *Platform) ReadInput(path string) ([]byte, error) {
	data, ok := p.r.cfg.Inputs[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoInput, path)
	}
	start := time.Now()
	bwDelay(int64(len(data)), p.r.cfg.Costs.Ext4ReadBps, p.r.cfg.CostScale)
	out := make([]byte, len(data))
	copy(out, data)
	p.clock.Add(metrics.StageReadInput, time.Since(start))
	return out, nil
}

// Compute runs fn, inflating its duration by the platform's compute
// factor (gVisor interception, MicroVM paging).
func (p *Platform) Compute(fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if f := p.r.computeFactor(); f > 1 && p.r.cfg.CostScale > 0 {
		time.Sleep(time.Duration(float64(d) * (f - 1) * p.r.cfg.CostScale))
		d = time.Since(start)
	}
	p.clock.Add(metrics.StageCompute, d)
	return err
}

// TimeTransfer charges fn's duration to the transfer stage — used by
// benchmarks that count payload writes/reads as part of the transfer
// window (the paper's §8.3 methodology).
func (p *Platform) TimeTransfer(fn func() error) error {
	start := time.Now()
	err := fn()
	p.clock.Add(metrics.StageTransfer, time.Since(start))
	return err
}

// Transfer runs fn as the app's transfer window. It adds no time of its
// own: the Send and Recv calls inside already charge theirs.
func (p *Platform) Transfer(fn func() error) error { return fn() }

// Printf writes to the platform's captured stdout.
func (p *Platform) Printf(format string, args ...any) error {
	_, err := fmt.Fprintf(p.r.cfg.Stdout, format, args...)
	return err
}

// Baseline-only transport kinds recorded in Result.Transfer alongside
// the shared xfer kinds: "local" is in-process hand-off (reference or
// shared mapping), "ipc" is a Faastlane pipe hop.
const (
	kindLocal = "local"
	kindIPC   = "ipc"
)

// Send moves intermediate data downstream under slot via the platform's
// transfer mechanism.
func (p *Platform) Send(slot string, data []byte) error {
	start := time.Now()
	defer func() { p.clock.Add(metrics.StageTransfer, time.Since(start)) }()
	switch p.r.cfg.System {
	case SysOpenFaaS, SysOpenFaaSGVisor:
		// Third-party forwarding through the real TCP store: the same
		// kv transport AlloyStack's kv mode uses, so the copy counters
		// line up across systems.
		return p.kv.Send(slot, data)
	case SysFaasm:
		// Two-tier state (§8.3): functions co-located on one worker
		// share a local mapping (page faults charged); edges crossing
		// workers go through the distributed store over real TCP.
		if p.r.crossWorker(slot) {
			return p.kv.Send(slot, data)
		}
		charge(time.Duration(int64(len(data)+4095)/4096)*p.r.cfg.Costs.FaasmPageFault, p.r.cfg.CostScale)
		p.r.setLocal(slot, data, true)
		p.stats.CountOp(kindLocal, int64(len(data)), 1) // copy into the shared mapping
		return nil
	case SysFaastlaneIPC:
		return p.pipeSend(slot, data)
	case SysFaastlane:
		if p.parallel {
			return p.pipeSend(slot, data)
		}
		p.r.setLocal(slot, data, false)
		p.stats.CountOp(kindLocal, int64(len(data)), 0) // ownership transfer
		return nil
	default: // Faastlane-refer and -kata variants: reference passing
		p.r.setLocal(slot, data, false)
		p.stats.CountOp(kindLocal, int64(len(data)), 0)
		return nil
	}
}

// Recv obtains the data registered under slot. The payload is the
// receiver's to keep, so release has nothing to free.
func (p *Platform) Recv(slot string) (data []byte, release func() error, err error) {
	data, err = p.recv(slot)
	return data, noRelease, err
}

func noRelease() error { return nil }

func (p *Platform) recv(slot string) ([]byte, error) {
	start := time.Now()
	defer func() { p.clock.Add(metrics.StageTransfer, time.Since(start)) }()
	switch p.r.cfg.System {
	case SysOpenFaaS, SysOpenFaaSGVisor:
		return p.recvKV(slot)
	case SysFaasm:
		if p.r.crossWorker(slot) {
			return p.recvKV(slot)
		}
		data, err := p.r.takeLocal(slot)
		if err != nil {
			return nil, err
		}
		charge(time.Duration(int64(len(data)+4095)/4096)*p.r.cfg.Costs.FaasmPageFault, p.r.cfg.CostScale)
		p.stats.CountOp(kindLocal, int64(len(data)), 0) // faulted in, not copied
		return data, nil
	case SysFaastlaneIPC:
		return p.pipeRecv(slot)
	case SysFaastlane:
		if p.parallel {
			return p.pipeRecv(slot)
		}
		return p.recvLocal(slot)
	default:
		return p.recvLocal(slot)
	}
}

// recvKV pulls one payload through the shared kv transport, translating
// its missing-slot error into the baseline package's sentinel.
func (p *Platform) recvKV(slot string) ([]byte, error) {
	data, release, err := p.kv.Recv(slot)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrSlotMissing, slot, err)
	}
	if err := release(); err != nil {
		return nil, err
	}
	return data, nil
}

// recvLocal consumes an in-process reference-passed slot.
func (p *Platform) recvLocal(slot string) ([]byte, error) {
	data, err := p.r.takeLocal(slot)
	if err != nil {
		return nil, err
	}
	p.stats.CountOp(kindLocal, int64(len(data)), 0)
	return data, nil
}

// pipeSend counts the serialisation copy onto the pipe before handing
// the bytes to the runner's real os.Pipe machinery.
func (p *Platform) pipeSend(slot string, data []byte) error {
	p.stats.CountOp(kindIPC, int64(len(data)), 1)
	return p.r.pipeSend(slot, data)
}

// pipeRecv counts the deserialisation copy off the pipe.
func (p *Platform) pipeRecv(slot string) ([]byte, error) {
	data, err := p.r.pipeRecv(slot)
	if err != nil {
		return nil, err
	}
	p.stats.CountOp(kindIPC, int64(len(data)), 1)
	return data, nil
}

// ipcMode reports whether this platform moves parallel-phase data over
// IPC (everything Faastlane except the -refer variants).
func (r *Runner) ipcMode() bool {
	switch r.cfg.System {
	case SysFaastlane, SysFaastlaneIPC, SysFaastlaneKata:
		return true
	}
	return false
}

// crossWorker decides whether a Faasm edge spans workers. Placement is
// deterministic from the slot's endpoint names so sender and receiver
// agree: function node X instance i lands on worker hash(X,i) mod slots.
// Chains therefore hop workers (the paper's growing FunctionChain
// control/state overhead), while a mapper and its paired reducer usually
// co-locate.
func (r *Runner) crossWorker(slot string) bool {
	w := r.cfg.Costs.FaasmWorkerSlots
	if w <= 1 {
		return false
	}
	// Slot format: "from:i->to:j" (visor.Slot).
	arrow := strings.Index(slot, "->")
	if arrow < 0 {
		return false
	}
	return workerOf(slot[:arrow], w) != workerOf(slot[arrow+2:], w)
}

// workerOf places "name:i" on a worker. Instances spread round-robin;
// the node name's stage index (trailing -<k>) also advances placement so
// chain links march across workers.
func workerOf(endpoint string, workers int) int {
	name := endpoint
	inst := 0
	if i := strings.LastIndexByte(endpoint, ':'); i >= 0 {
		name = endpoint[:i]
		if v, err := strconv.Atoi(endpoint[i+1:]); err == nil {
			inst = v
		}
	}
	ord := 0
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if v, err := strconv.Atoi(name[i+1:]); err == nil {
			ord = v
		}
	}
	return (ord + inst) % workers
}

// setLocal registers data under slot. copyData forces a copy (shared
// mapping semantics); otherwise ownership transfers by reference.
func (r *Runner) setLocal(slot string, data []byte, copyData bool) {
	if copyData {
		dup := make([]byte, len(data))
		copy(dup, data)
		data = dup
	}
	r.mu.Lock()
	r.local[slot] = data
	r.mu.Unlock()
}

// takeLocal consumes the slot entry.
func (r *Runner) takeLocal(slot string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, ok := r.local[slot]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrSlotMissing, slot)
	}
	delete(r.local, slot)
	return data, nil
}

// ---- Faastlane IPC: real OS pipes ----------------------------------------

// ipcPipe frames one edge's transfer over an os.Pipe.
type ipcPipe struct {
	rd *os.File
	wr *os.File
}

func (p *ipcPipe) close() {
	p.rd.Close()
	p.wr.Close()
}

// pipeFor returns (creating if needed) the pipe for an edge.
func (r *Runner) pipeFor(slot string) (*ipcPipe, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.pipes[slot]; ok {
		return p, nil
	}
	rd, wr, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	p := &ipcPipe{rd: rd, wr: wr}
	r.pipes[slot] = p
	return p, nil
}

// pipeSend streams a length-prefixed payload through the edge's pipe.
// The write happens on a goroutine because pipes have bounded capacity
// and sender/receiver are concurrent function instances.
func (r *Runner) pipeSend(slot string, data []byte) error {
	p, err := r.pipeFor(slot)
	if err != nil {
		return err
	}
	// Marshalling onto the wire costs a serialisation pass (§8.1).
	bwDelay(int64(len(data)), r.cfg.Costs.FaastlaneIPCSerBps, r.cfg.CostScale)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(data)))
	go func() {
		p.wr.Write(hdr[:])
		p.wr.Write(data)
	}()
	return nil
}

// pipeRecv reads one framed payload from the edge's pipe.
func (r *Runner) pipeRecv(slot string) ([]byte, error) {
	p, err := r.pipeFor(slot)
	if err != nil {
		return nil, err
	}
	var hdr [8]byte
	if _, err := io.ReadFull(p.rd, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	data := make([]byte, n)
	if _, err := io.ReadFull(p.rd, data); err != nil {
		return nil, err
	}
	// Deserialisation pass on the receiving side.
	bwDelay(int64(n), r.cfg.Costs.FaastlaneIPCSerBps, r.cfg.CostScale)
	r.mu.Lock()
	delete(r.pipes, slot)
	r.mu.Unlock()
	p.close()
	return data, nil
}
