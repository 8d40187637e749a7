// Package visor implements as-visor, AlloyStack's global runtime layer
// (paper §3.3): the watchdog that receives invocation events, the
// orchestrator that instantiates a WFD per workflow invocation and runs
// its function instances in stage order, and the registry binding
// function names to their implementations in each language tier.
package visor

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/asvm"
	"alloystack/internal/core"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/journal"
	"alloystack/internal/metrics"
	"alloystack/internal/pool"
	"alloystack/internal/scan"
	"alloystack/internal/trace"
	"alloystack/internal/xfer"
)

// Errors returned by the visor.
var (
	ErrUnknownFunction = errors.New("visor: function not registered")
	ErrUnknownWorkflow = errors.New("visor: workflow not registered")
	// ErrRejected wraps an admission-scan failure: a guest image the
	// workflow stages did not pass static verification (internal/scan).
	// The watchdog maps it to HTTP 403.
	ErrRejected = errors.New("visor: guest image rejected by admission scan")
)

// FuncContext is the runtime information handed to each function
// instance: which workflow/function/instance it is and the workflow's
// parameters. Slot naming helpers give fan-out and fan-in a convention.
type FuncContext struct {
	Workflow  string
	Function  string
	Instance  int // 0-based index among this function's instances
	Instances int // total parallel instances of this function
	Stage     int
	Params    map[string]string

	// slots holds a plan's slot names, formatted once; a bare context
	// has none, so SlotFrom and SlotTo format theirs.
	slots map[slotKey]string
}

// slotKey is what Slot names: an edge and an instance at each end.
type slotKey struct {
	from, to string
	p, c     int
}

// SlotFrom names the slot dep's instance i sends this instance:
// Slot(dep, i, Function, Instance), from the plan where it has the edge.
func (c FuncContext) SlotFrom(dep string, i int) string {
	if s, ok := c.slots[slotKey{dep, c.Function, i, c.Instance}]; ok {
		return s
	}
	return Slot(dep, i, c.Function, c.Instance)
}

// SlotTo names the slot this instance sends child's instance j:
// Slot(Function, Instance, child, j), from the plan where it has the edge.
func (c FuncContext) SlotTo(child string, j int) string {
	if s, ok := c.slots[slotKey{c.Function, child, c.Instance, j}]; ok {
		return s
	}
	return Slot(c.Function, c.Instance, child, j)
}

// Param fetches a workflow parameter with a default.
func (c FuncContext) Param(key, def string) string {
	if v, ok := c.Params[key]; ok {
		return v
	}
	return def
}

// ParamInt fetches an integer parameter with a default.
func (c FuncContext) ParamInt(key string, def int64) int64 {
	if v, ok := c.Params[key]; ok {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// Slot builds a namespaced AsBuffer slot: "fn:i->fn:j" style keys keep
// fan-out edges distinct inside the WFD (paper §5's slot parameter).
func Slot(from string, fromIdx int, to string, toIdx int) string {
	return from + ":" + strconv.Itoa(fromIdx) + "->" + to + ":" + strconv.Itoa(toIdx)
}

// NativeFunc is a native-tier (≈Rust) function body.
type NativeFunc func(env *asstd.Env, ctx FuncContext) error

// VMFunc is a guest-tier function: an ASVM program plus engine config.
type VMFunc struct {
	Prog  *asvm.Program
	Entry string
	// Engine/OverheadFactor select the runtime model: AOT+1.3 for the
	// AlloyStack-C tier (Wasmtime), AOT+1.0 for Faasm-C (WAVM), AOT
	// plus an interpretive factor for the Python tier. The factor is a
	// modelled cost: runVM scales its excess over 1 by the run's
	// CostScale.
	Engine         asvm.EngineKind
	OverheadFactor float64
	// RuntimeImage, when set, is a file read through the LibOS
	// filesystem before execution — the Python-runtime initialisation
	// cost the paper identifies as the AS-Py bottleneck.
	RuntimeImage string
	// InitCost is the calibrated runtime-bootstrap work beyond the
	// image read (interpreter startup, module import machinery); it is
	// scaled by the run's CostScale.
	InitCost time.Duration
	// Resolve gives one instance its entry-point arguments and the slot
	// names behind its logical in/out edges (the slot_send/slot_recv
	// host calls). Nil means arguments (instance, instances) and no
	// edges. It must be a pure function of ctx: RegisterWorkflow calls
	// it once per stage instance and every invoke reuses the result.
	Resolve func(ctx FuncContext) (args []int64, in, out []string)
}

// Registry maps (function, language) to an implementation.
type Registry struct {
	mu     sync.RWMutex
	native map[string]NativeFunc
	vm     map[string]VMFunc
}

// NewRegistry returns an empty function registry.
func NewRegistry() *Registry {
	return &Registry{
		native: make(map[string]NativeFunc),
		vm:     make(map[string]VMFunc),
	}
}

// RegisterNative binds a native-tier implementation. A stage's last
// instance runs on the goroutine that called RunWorkflow, so a body
// must return, never call runtime.Goexit.
func (r *Registry) RegisterNative(name string, fn NativeFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.native[name] = fn
}

// RegisterVM binds a guest-tier implementation under name+language.
func (r *Registry) RegisterVM(name, language string, vf VMFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vm[name+"/"+language] = vf
}

// BaseName strips a node name's all-digit instance suffix ("chain-7" ->
// "chain"); any other name is its own base ("chain-x", "wc-map"). The
// digits are checked by hand because a failed strconv.Atoi allocates,
// and "wc-map" and its siblings would fail it on every guest instance
// of every invoke.
func BaseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

func (r *Registry) lookup(name, language string) (impl, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// Generic implementations register a base name and serve every
	// node derived from it ("chain-7" -> "chain"); the instance learns
	// its position from the context. The full name is probed first.
	base := BaseName(name)
	if language == "" || language == "native" {
		fn, ok := r.native[name]
		if !ok {
			fn, ok = r.native[base]
		}
		if !ok {
			return impl{}, fmt.Errorf("%w: %s (native)", ErrUnknownFunction, name)
		}
		return impl{native: fn}, nil
	}
	vf, ok := r.vm[name+"/"+language]
	if !ok {
		vf, ok = r.vm[base+"/"+language]
	}
	if !ok {
		return impl{}, fmt.Errorf("%w: %s (%s)", ErrUnknownFunction, name, language)
	}
	return impl{vm: &vf}, nil
}

// RunOptions configure one workflow invocation.
type RunOptions struct {
	// Options is the WFD half: memory and heap bounds, the disk image
	// or ramfs, the virtual NIC, stdout, on-demand loading, IFI and the
	// injected-cost scale, handed to core.Instantiate as they stand. A
	// non-nil Ramfs runs the Figure 16 in-memory-filesystem mode.
	core.Options

	// Transfer pins the data plane for intermediate data to one of the
	// kinds xfer.New builds ("refpass", "file"). Empty means refpass,
	// the AlloyStack default; "file" is the Figure 14 ablation ("when
	// reference passing is disabled, AlloyStack uses files as an
	// intermediary mechanism"). A function spec can override per edge
	// with Params["transfer"].
	Transfer string

	// Retry, when non-nil, restarts a function instance that faults
	// (panics), provided the WFD survived — the paper's §3.1 retry-based
	// fault tolerance for idempotent functions: a per-instance budget,
	// exponential backoff with deterministic jitter and a max-elapsed
	// cap. Nil means no retries.
	Retry *faults.RetryPolicy

	// Ctx bounds the whole invocation; cancelling it stops every
	// in-flight function instance. Nil means context.Background().
	Ctx context.Context
	// Deadline, when positive, is the per-invocation wall-clock budget
	// layered on top of Ctx.
	Deadline time.Duration
	// FuncTimeout, when positive, bounds each function attempt; an
	// attempt that exceeds it fails with a deadline error (timeouts are
	// not retried — the abandoned attempt may still be running).
	FuncTimeout time.Duration

	// Faults, when non-nil, is the deterministic fault-injection plan
	// consulted before every function attempt (see internal/faults).
	Faults *faults.Plan

	// Trace, when non-nil, receives the invocation's span tree: a root
	// span per run, one span per stage barrier and function instance,
	// phase spans for the Figure-15 breakdown, and per-edge transfer
	// spans. A nil tracer is the no-op sink — tracing is cheap enough
	// to leave the plumbing unconditional. A failed run prints the
	// tracer's flight dump to Stdout automatically.
	Trace *trace.Tracer

	// ImportSlots pre-registers intermediate data before the first
	// stage; ExportSlots drains slots after the last stage (multi-node
	// bridging, §9 — see SplitAt/CrossSlots).
	ImportSlots map[string][]byte
	ExportSlots []string

	// Pool, when non-nil, serves this invocation from a warm-instance
	// pool: the run tries Pool.Get() for a pre-forked clone of the
	// workflow's template WFD and falls back to a cold Instantiate on a
	// miss. Hub-attached runs always boot cold (clones cannot share a
	// NIC address).
	Pool *pool.Pool
	// WarmStart gates Pool usage per invocation; the watchdog maps the
	// ?warm=0 escape hatch onto it. Ignored when Pool is nil.
	WarmStart bool
	// QueueWait is how long the request waited in the admission queue
	// before the run started (set by the watchdog's scheduler); it is
	// echoed into the trace as a "queue" span and into RunResult.
	QueueWait time.Duration

	// Journal, when non-nil, makes the run durable: a write-ahead record
	// in this store at every stage barrier, barrier-crossing slots
	// spilled, and a terminal seal — so a crashed run can be resumed
	// from its last committed stage. Failed durable runs unwind
	// committed stages' declared compensations (saga) before sealing.
	Journal *journal.Store
	// Resume re-opens the named journaled run instead of starting
	// fresh: committed stages are skipped (their spilled outputs are
	// re-imported), and a run that had failed terminally goes straight
	// to the saga unwind. Sealed runs refuse with journal.ErrSealed.
	// Requires Journal.
	Resume string
	// CrashFn is invoked when a faults.Crash point fires, after the
	// journal is closed unsealed — the kill-the-process hook
	// (integration tests install os.Exit). Nil aborts the run
	// in-process with ErrCrashPoint instead.
	CrashFn func(point string) //asvet:allow unreachable -- the process-kill seam: the crash-resume integration test installs os.Exit
}

// DefaultRunOptions are the paper's standard AlloyStack configuration.
func DefaultRunOptions() RunOptions {
	return RunOptions{Options: core.Options{OnDemand: true, CostScale: 1.0}}
}

// RunResult summarises one workflow invocation.
type RunResult struct {
	E2E time.Duration
	// ColdStart is the WFD boot latency: a full Instantiate for cold
	// runs, the snapshot-fork cost for warm ones.
	ColdStart time.Duration
	// WarmStart reports whether the run was served by a pooled clone.
	WarmStart bool
	// QueueWait echoes the admission-queue wait from RunOptions.
	QueueWait time.Duration
	// Stages is the per-stage wall time in order.
	Stages []time.Duration
	// Clock aggregates the read-input/compute/transfer/wait breakdown.
	Clock *metrics.StageClock
	// MemPeak is the WFD's peak mapped memory.
	MemPeak uint64
	// Crossings counts MPK domain crossings across all functions.
	Crossings uint64
	// Retries counts function restarts absorbed by fault tolerance.
	Retries int
	// RetryBudget echoes the per-instance retry budget that was in
	// force, so callers can relate Retries to what was available.
	RetryBudget int
	// RetryWait is the total backoff time spent between retries.
	RetryWait time.Duration
	// Exports carries the drained ExportSlots data (the front half of a
	// §9 multi-node cut).
	Exports map[string][]byte
	// Transfer aggregates per-transport counters (bytes moved, copies
	// made, slots reused) for the run's data plane.
	Transfer *metrics.TransportStats
	// TraceID echoes the tracer's trace identifier, "" when the run was
	// not traced.
	TraceID string
	// RunID is the durable run's journal identifier ("" for
	// non-durable runs).
	RunID string
	// Resumed reports the run was re-opened from an existing journal;
	// StagesSkipped counts the committed stages the resume did not
	// re-execute.
	Resumed       bool
	StagesSkipped int
	// Compensations counts saga handlers executed by this invocation.
	Compensations int
	// Verdict is the journal's terminal verdict for durable runs:
	// "ok", "compensated" or "comp-failed".
	Verdict string
}

// EdgeTransfer resolves which transport kind a function's edges use:
// the spec's "transfer" param wins, then the run-level Transfer knob,
// then refpass. asctl describe uses the same resolution to audit
// configs before invocation.
func EdgeTransfer(params map[string]string, opts RunOptions) string {
	if v := params["transfer"]; v != "" {
		return v
	}
	if opts.Transfer != "" {
		return opts.Transfer
	}
	return xfer.KindRefpass
}

// Visor drives workflow execution on one node.
type Visor struct {
	Funcs *Registry

	// ImportAllowlist is the host-import set granted to guest images at
	// admission. Nil means scan.WASIAllowlist(). It is read when a plan
	// is compiled, so fix it before RegisterWorkflow.
	ImportAllowlist map[string]bool //asvet:allow unreachable -- test seam: the admission tests narrow the host-import set

	mu          sync.RWMutex
	workflows   map[string]*plan
	scanRejects atomic.Int64
}

// New returns a visor with the given function registry.
func New(funcs *Registry) *Visor {
	return &Visor{Funcs: funcs, workflows: make(map[string]*plan)}
}

// RegisterWorkflow validates w and compiles it into the plan every
// invoke of it runs, resolving its functions against the registry as it
// stands: register them first. A registered workflow is not mutated
// afterwards; registering its name again replaces the plan.
func (v *Visor) RegisterWorkflow(w *dag.Workflow) error {
	if err := w.Validate(); err != nil {
		return err
	}
	p := v.compile(w)
	v.mu.Lock()
	defer v.mu.Unlock()
	v.workflows[w.Name] = p
	return nil
}

// Workflow retrieves a registered workflow.
func (v *Visor) Workflow(name string) (*dag.Workflow, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	p, ok := v.workflows[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownWorkflow, name)
	}
	return p.w, nil
}

// Workflows lists registered workflow names, sorted.
func (v *Visor) Workflows() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	names := make([]string, 0, len(v.workflows))
	for n := range v.workflows {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ScanRejects reports how many invocations the admission scan has
// rejected since the visor started (the watchdog exports it as
// alloystack_scan_rejects_total).
func (v *Visor) ScanRejects() int64 { return v.scanRejects.Load() }

// plan is a workflow compiled once for every invoke of it: the stages,
// what each spec and compensation handler runs, one verdict. Immutable.
type plan struct {
	w         *dag.Workflow
	stages    [][]dag.FuncSpec
	impls     [][]impl // impls[si][k] runs stages[si][k]
	comps     map[string]impl
	instances int // function instances, all stages
	// err is the first function or handler the registry lacks, or the
	// scan's rejection: each invoke returns it before journal and boot.
	err error
}

// impl is one spec resolved against the registry: a native body or a
// guest image. A stage's impl also holds each instance's context, and a
// guest one each instance's resolved call; a compensation's are made
// when it runs.
type impl struct {
	native NativeFunc
	vm     *VMFunc
	ctxs   []FuncContext // ctxs[i] is instance i's
	calls  []guestCall   // calls[i] is instance i's
}

// guestCall is one guest instance's VMFunc.Resolve result: its entry
// arguments and the slots behind its in- and out-edges.
type guestCall struct {
	args    []int64
	in, out []string
}

// resolveCall runs vf's Resolve for ctx, or gives the default
// arguments (instance, instances) and no edges.
func resolveCall(vf *VMFunc, ctx FuncContext) guestCall {
	if vf.Resolve == nil {
		return guestCall{args: []int64{int64(ctx.Instance), int64(ctx.Instances)}}
	}
	args, in, out := vf.Resolve(ctx)
	return guestCall{args, in, out}
}

// compile levels w, resolves every spec and passes each distinct guest
// image, compensations included, through the admission scan: §6's
// validate-before-execute, so an image that could jump between
// instructions, unbalance the shared value stack or call an
// off-allowlist host import never reaches an engine. Each stage
// instance's context, each guest instance's edges and each native
// edge's slot names are made here too.
func (v *Visor) compile(w *dag.Workflow) *plan {
	stages, err := w.Stages()
	p := &plan{w: w, stages: stages, err: err,
		impls: make([][]impl, len(stages)), comps: make(map[string]impl)}
	allow := v.ImportAllowlist
	var scanned []*asvm.Program
	resolve := func(spec dag.FuncSpec) impl {
		im, err := v.Funcs.lookup(spec.Name, spec.Language)
		p.err = cmp.Or(p.err, err)
		if im.vm == nil || p.err != nil || slices.Contains(scanned, im.vm.Prog) {
			return im
		}
		if allow == nil { // built only for a workflow with guests
			allow = scan.WASIAllowlist()
		}
		scanned = append(scanned, im.vm.Prog)
		if _, err := scan.Verify(im.vm.Prog, allow); err != nil {
			p.err = fmt.Errorf("%w: workflow %q function %q: %v", ErrRejected, w.Name, spec.Name, err)
		}
		return im
	}
	// Each edge with a native end is named once, here, for every invoke.
	slots := map[slotKey]string{}
	byName := map[string]*impl{}
	for si, stage := range stages {
		p.impls[si] = make([]impl, len(stage))
		for k, spec := range stage {
			im := &p.impls[si][k]
			*im = resolve(spec)
			byName[spec.Name] = im
			n := spec.InstancesOf()
			p.instances += n
			im.ctxs = make([]FuncContext, n)
			for i := range im.ctxs {
				im.ctxs[i] = FuncContext{Workflow: w.Name, Function: spec.Name,
					Instance: i, Instances: n, Stage: si, Params: spec.Params, slots: slots}
			}
			for _, dep := range spec.DependsOn {
				if from := byName[dep]; from != nil && (from.native != nil || im.native != nil) {
					for i := range len(from.ctxs) * n {
						slots[slotKey{dep, spec.Name, i / n, i % n}] = Slot(dep, i/n, spec.Name, i%n)
					}
				}
			}
			if im.vm != nil && p.err == nil {
				im.calls = make([]guestCall, n)
				for i := range im.calls {
					im.calls[i] = resolveCall(im.vm, im.ctxs[i])
				}
			}
		}
	}
	for _, c := range w.Compensations {
		p.comps[c.Name] = resolve(c)
	}
	return p
}

// Invoke runs a registered workflow by name.
func (v *Visor) Invoke(name string, opts RunOptions) (*RunResult, error) {
	w, err := v.Workflow(name)
	if err != nil {
		return nil, err
	}
	return v.RunWorkflow(w, opts)
}

// RunWorkflow executes one invocation of w: instantiate the WFD, run the
// DAG stage by stage with a barrier between stages, destroy the WFD.
// This is steps ①-⑦ of Figure 4.
//
// Recovery semantics (§3.1): a function attempt that faults (panics) is
// restarted under the retry policy while the WFD and its intermediate
// data stay intact. When an instance exhausts its retry budget — or
// fails with a non-retryable error, including a FuncTimeout deadline —
// its stage's sibling instances are cancelled and the invocation fails.
// Cancelling opts.Ctx (or exceeding opts.Deadline) stops all in-flight
// instances.
//
// Observability: when opts.Trace is set, the run produces a span tree
// (invoke > stage > instance > phase/xfer/syscall), and a failed,
// timed-out or chaos-killed run prints the tracer's flight dump to
// opts.Stdout so the report names what the failure interrupted.
func (v *Visor) RunWorkflow(w *dag.Workflow, opts RunOptions) (*RunResult, error) {
	res, err := v.runWorkflow(w, opts)
	if err != nil {
		opts.Trace.FlightDump(opts.Stdout,
			fmt.Sprintf("invocation %q failed: %v", w.Name, err))
	}
	return res, err
}

// run is one invocation's state: what the step methods runWorkflow calls
// in order share. Nothing in it but the read-only plan outlives the call.
type run struct {
	*plan
	opts RunOptions

	ctx   context.Context
	start time.Time
	root  *trace.Span
	wfd   *core.WFD
	res   *RunResult
	// dj is nil unless the run is journaled; its methods are nil-safe.
	dj *durableRun

	// The data-plane halves every function instance shares: one buffer
	// pool (freed AsBuffers serve later stages) and one spill-path
	// registry (cross-stage 8.3 collisions surface). The counter table
	// is res.Transfer.
	bufs  *xfer.BufPool
	paths *xfer.PathRegistry

	// retryMu guards res.Retries and res.RetryWait across parallel
	// instances. lanes gives every instance its own trace lane (Chrome
	// tid), so parallel instances render as parallel rows.
	retryMu sync.Mutex
	lanes   int64

	st stage // the barrier of the stage running now
}

// runWorkflow is the invoke path, one step per line; DESIGN.md ("Invoke
// path") names each step and the file it lives in.
func (v *Visor) runWorkflow(w *dag.Workflow, opts RunOptions) (*RunResult, error) {
	r, err := v.newRun(w, opts)
	if err != nil {
		return nil, err
	}
	if err := r.openJournal(); err != nil {
		return nil, err
	}
	defer r.dj.close()
	cancel := r.begin()
	defer cancel()
	defer r.root.End()
	if err := r.boot(); err != nil {
		return nil, err
	}
	defer r.release()
	if err := r.importInputs(); err != nil {
		return nil, err
	}
	if err := r.dj.resume(r); err != nil {
		return r.fail(err)
	}
	for si := range r.stages {
		if r.dj.skips(si) {
			// Committed before the crash: the journal proves this stage's
			// outputs are durable (and resume restored them), so its
			// producers never re-execute.
			r.res.StagesSkipped++
			r.res.Stages = append(r.res.Stages, 0)
			continue
		}
		if err := r.runStage(si); err != nil {
			return r.fail(err)
		}
		if err := r.dj.commitStage(r, si); err != nil {
			return r.fail(err)
		}
	}
	if err := r.export(); err != nil {
		return nil, err
	}
	if err := r.dj.seal(r.res, "ok"); err != nil {
		return nil, err
	}
	r.finish()
	return r.res, nil
}

// newRun takes w's registered plan, or compiles a throwaway one when w
// is not the registered pointer (unregistered, or a resume's journaled
// spec), and sets up a run the plan admits. A rejection counts one scan
// reject.
func (v *Visor) newRun(w *dag.Workflow, opts RunOptions) (*run, error) {
	v.mu.RLock()
	p := v.workflows[w.Name]
	v.mu.RUnlock()
	if p == nil || p.w != w {
		p = v.compile(w)
	}
	if p.err != nil {
		if errors.Is(p.err, ErrRejected) {
			v.scanRejects.Add(1)
		}
		return nil, p.err
	}
	r := &run{plan: p, opts: opts,
		bufs: xfer.NewBufPool(), paths: xfer.NewPathRegistry(),
		res: &RunResult{
			QueueWait: opts.QueueWait,
			Stages:    make([]time.Duration, 0, len(p.stages)),
			Clock:     metrics.NewStageClock(),
			Transfer:  metrics.NewTransportStats(),
		}}
	if opts.Retry != nil {
		r.res.RetryBudget = opts.Retry.MaxRetries
	}
	return r, nil
}

// begin bounds the run by opts.Ctx and opts.Deadline, opens the root
// span and starts the E2E clock. The returned cancel releases the
// deadline's timer. Without a deadline r.ctx is opts.Ctx itself; a
// fan-out stage derives a cancellable context from it (runStage).
func (r *run) begin() context.CancelFunc {
	r.ctx = r.opts.Ctx
	if r.ctx == nil {
		r.ctx = context.Background()
	}
	cancel := func() {}
	if r.opts.Deadline > 0 {
		r.ctx, cancel = context.WithTimeout(r.ctx, r.opts.Deadline)
	}
	if r.opts.Trace != nil {
		r.root = r.opts.Trace.Start("invoke:"+r.w.Name, trace.CatInvoke)
	}
	r.start = time.Now()
	if r.opts.QueueWait > 0 {
		// The admission wait happened before this run started; chart it
		// as a completed span leading into the root.
		r.root.Complete("queue", trace.CatQueue, r.start.Add(-r.opts.QueueWait), r.opts.QueueWait)
	}
	return cancel
}

// boot obtains the WFD: a warm clone from the pool when allowed, a cold
// Instantiate otherwise. Hub-attached runs always boot cold — a clone
// cannot share its template's NIC address.
func (r *run) boot() error {
	opts := &r.opts
	warm := false
	if opts.Pool != nil && opts.WarmStart && opts.Hub == nil {
		if clone, ok := opts.Pool.Get(); ok {
			clone.SetStdout(opts.Stdout)
			r.wfd, warm = clone, true
		}
	}
	name := "boot(cold)"
	if warm {
		name = "boot(warm)"
	}
	span := r.root.Child(name, trace.CatBoot)
	defer span.End()
	if !warm {
		var err error
		r.wfd, err = core.Instantiate(opts.Options)
		if err != nil {
			return err
		}
	}
	r.res.ColdStart, r.res.WarmStart = r.wfd.ColdStart, warm
	r.wfd.ReserveEnvs(r.instances)
	return nil
}

// release gives the WFD back: a clone to its pool, a cold boot to
// Destroy.
func (r *run) release() {
	if r.res.WarmStart {
		r.opts.Pool.Recycle(r.wfd)
	} else {
		r.wfd.Destroy()
	}
}

// importInputs registers the intermediate data a multi-node cut hands
// this subgraph, before its first stage runs.
func (r *run) importInputs() error {
	if len(r.opts.ImportSlots) == 0 {
		return nil
	}
	sp := r.root.Child("import-slots", trace.CatXfer)
	err := importSlots(r.wfd, r.opts.ImportSlots)
	sp.End()
	if err != nil {
		return fmt.Errorf("visor: import slots: %w", err)
	}
	return nil
}

// stage is one stage's barrier: what its instances share.
type stage struct {
	span *trace.Span
	// ctx is the run's own for a one-instance stage, cancel nil. With
	// siblings it is cancellable, so a terminally failed instance stops
	// them instead of letting them run to completion on a doomed stage.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu                  sync.Mutex // guards the fields below
	firstDone, lastDone time.Time
	err                 error
}

// runStage runs stage si's instances, the last on this goroutine, and
// holds the barrier until all return. A terminally failed instance
// ends the run through the journal's failure path.
func (r *run) runStage(si int) error {
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("visor: stage %d not started: %w", si, err)
	}
	if err := r.dj.beginStage(si); err != nil {
		return err
	}
	// Span names are built only under a live parent, here and in launch
	// and runInstance: an untraced run formats nothing.
	st := &r.st
	*st = stage{ctx: r.ctx}
	if r.root != nil {
		st.span = r.root.Child("stage-"+strconv.Itoa(si), trace.CatStage)
	}
	start := time.Now()
	impls := r.impls[si]
	if len(impls) != 1 || len(impls[0].ctxs) != 1 {
		st.ctx, st.cancel = context.WithCancel(r.ctx)
		defer st.cancel()
	}
	for k := range impls {
		im := &impls[k]
		for i := range im.ctxs {
			r.launch(st, im, &im.ctxs[i], k == len(impls)-1 && i == len(im.ctxs)-1)
		}
	}
	st.wg.Wait()
	// Fan-in synchronisation wait: faster instances idle until the
	// slowest finishes (the unhatched area of Figure 15). Clock and
	// span are charged from the same window so the exported trace
	// agrees with the stage breakdown exactly.
	if !st.firstDone.IsZero() {
		wait := st.lastDone.Sub(st.firstDone)
		r.res.Clock.Add(metrics.StageWait, wait)
		st.span.Complete(metrics.StageWait.String(), trace.CatPhase, st.firstDone, wait)
	}
	st.span.End()
	if st.err != nil {
		return r.dj.failStage(r, si, fmt.Errorf("visor: stage %d: %w", si, st.err))
	}
	r.res.Stages = append(r.res.Stages, time.Since(start))
	return nil
}

// launch opens one function instance's trace lane and runs it: on a
// goroutine of its own, or, for the stage's last, on this one.
func (r *run) launch(st *stage, im *impl, fctx *FuncContext, last bool) {
	a := &instance{r: r, im: im, fctx: fctx}
	if st.span != nil {
		a.span = st.span.Child(fctx.Function+"["+strconv.Itoa(fctx.Instance)+"]", trace.CatFunc)
	}
	a.span.SetLane(r.lanes)
	r.lanes++
	st.wg.Add(1)
	if last {
		r.instance(st, a)
	} else {
		go r.instance(st, a)
	}
}

// instance runs one function instance and records how it ended.
func (r *run) instance(st *stage, a *instance) {
	defer st.wg.Done()
	defer a.span.End()
	ferr := r.runInstance(st.ctx, a)
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	if st.firstDone.IsZero() {
		st.firstDone = now
	}
	st.lastDone = now
	if ferr == nil {
		return
	}
	if st.cancel != nil {
		st.cancel()
	}
	// Siblings cancelled *because* another instance failed report
	// context.Canceled, which would mask the root cause, so any
	// other error wins.
	if st.err == nil || errors.Is(st.err, context.Canceled) && !errors.Is(ferr, context.Canceled) {
		st.err = ferr
	}
}

// export drains ExportSlots after the last stage into RunResult.Exports
// (copies: the data is leaving the address space).
func (r *run) export() error {
	if len(r.opts.ExportSlots) == 0 {
		return nil
	}
	r.res.Exports = make(map[string][]byte)
	err := drainSlots(r.wfd, r.opts.ExportSlots, func(slot string, src []byte) error {
		r.res.Exports[slot] = append([]byte(nil), src...)
		return nil
	})
	if err != nil {
		return fmt.Errorf("visor: export slots: %w", err)
	}
	return nil
}

// finish fills the result's whole-run figures.
func (r *run) finish() {
	r.res.MemPeak = r.wfd.MemoryUsage()
	r.res.Crossings = r.wfd.Crossings()
	r.res.E2E = time.Since(r.start)
	r.res.TraceID = r.opts.Trace.TraceID()
}

// fail ends the run with err. The partial result goes back only when the
// journal records how the run ended — sealed with a verdict, or cut at
// a crashpoint and resumable — so the caller can name the run.
func (r *run) fail(err error) (*RunResult, error) {
	if r.res.Verdict != "" || errors.Is(err, ErrCrashPoint) {
		return r.res, err
	}
	return nil, err
}

// instance is one attempt's one allocation: its env (PKRU context
// included), refpass transport and what its body reads. It is never
// reused: a native body, or an attempt abandoned at a deadline, may keep
// its *Env.
type instance struct {
	env     asstd.Env
	rp      xfer.Refpass
	r       *run
	im      *impl
	fctx    *FuncContext
	span    *trace.Span
	attempt int
	panics  bool // the fault plan panics this attempt
}

// Run binds a.env to the run (stage clock, span, and the transport over
// the run's pool and path registry), then runs the native body, or the
// guest's VM with the call the plan resolved for the instance.
func (a *instance) Run(env *asstd.Env) error {
	r, im, fctx := a.r, a.im, a.fctx
	if a.panics {
		panic(fmt.Sprintf("faults: injected panic %s[%d] attempt %d", fctx.Function, fctx.Instance, a.attempt))
	}
	env.Clock, env.Span = r.res.Clock, a.span
	tr, err := xfer.New(EdgeTransfer(fctx.Params, r.opts), xfer.Config{
		Env: env, Pool: r.bufs, Paths: r.paths, Stats: r.res.Transfer, Refpass: &a.rp})
	if err != nil {
		return err
	}
	env.SetTransport(xfer.WithTrace(tr, a.span))
	if im.vm == nil {
		return im.native(env, *fctx)
	}
	if fctx.Instance < len(im.calls) {
		return r.runVM(env, im.vm, &im.calls[fctx.Instance])
	}
	gc := resolveCall(im.vm, *fctx)
	return r.runVM(env, im.vm, &gc)
}

// runInstance drives one function instance through the retry policy:
// consult the fault plan, run the attempt under the per-attempt timeout,
// and on a fault (panic) back off and restart, in a fresh record, while
// the budget and the stage context allow. Only faults are retried;
// ordinary errors are programming results, and timeouts are not retried
// because the abandoned attempt may still be executing.
func (r *run) runInstance(ctx context.Context, a *instance) error {
	fctx, span := a.fctx, a.span
	start := time.Now()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("visor: %s[%d]: %w", fctx.Function, fctx.Instance, err)
		}
		if attempt > 0 {
			a = &instance{r: r, im: a.im, fctx: fctx, span: span, attempt: attempt}
		}
		if d := r.opts.Faults.FuncDelay(fctx.Function, fctx.Instance, attempt); d > 0 {
			span.Event(fmt.Sprintf("injected delay %s attempt %d", d, attempt))
			if err := sleepCtx(ctx, d); err != nil {
				return fmt.Errorf("visor: %s[%d]: %w", fctx.Function, fctx.Instance, err)
			}
		}
		if r.opts.Faults.FuncPanic(fctx.Function, fctx.Instance, attempt) {
			span.Event(fmt.Sprintf("injected panic attempt %d", attempt))
			a.panics = true
		}
		var attemptSpan *trace.Span
		if span != nil {
			attemptSpan = span.Child("attempt-"+strconv.Itoa(attempt), trace.CatAttempt)
		}
		ferr := r.runAttempt(ctx, a)
		if ferr != nil {
			attemptSpan.SetAttr("error", ferr.Error())
		}
		attemptSpan.End()
		if ferr == nil || !errors.Is(ferr, core.ErrFunctionFault) {
			return ferr
		}
		policy := r.opts.Retry // nil retries nothing
		if policy == nil || !policy.Allow(attempt, time.Since(start)) {
			return ferr
		}
		r.retryMu.Lock()
		r.res.Retries++
		r.res.RetryWait += policy.Backoff(attempt)
		r.retryMu.Unlock()
		span.Event(fmt.Sprintf("retry after attempt %d", attempt))
		if err := policy.Sleep(ctx, attempt); err != nil {
			return fmt.Errorf("visor: %s[%d]: %w", fctx.Function, fctx.Instance, err)
		}
	}
}

// runAttempt executes attempt a, bounded by the per-function timeout
// when set. A timed-out attempt returns an error satisfying
// errors.Is(err, context.DeadlineExceeded).
func (r *run) runAttempt(ctx context.Context, a *instance) error {
	if r.opts.FuncTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.FuncTimeout)
		defer cancel()
	}
	if err := r.wfd.InitEnv(&a.env, a.fctx.Function); err != nil {
		return err
	}
	return r.wfd.RunCtx(ctx, &a.env, a)
}

// sleepCtx sleeps d or returns the context error if cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// scaledFactor is a tier's modelled engine penalty at a run's CostScale:
// all of it at 1, none — the bare engine — at 0.
func scaledFactor(factor, costScale float64) float64 {
	return 1 + (factor-1)*costScale
}

// runVM executes a guest-tier function: instantiate the ASVM module with
// the WASI bindings over this env and gc's edges, optionally paying the
// runtime-image initialisation read, then call the entry point with gc's
// arguments and release the instance's memory.
func (r *run) runVM(env *asstd.Env, vf *VMFunc, gc *guestCall) error {
	warm := vf.RuntimeImage != "" && r.wfd.RuntimeWarm(vf.RuntimeImage)
	if vf.RuntimeImage != "" && !warm {
		// Cold Python-tier runtime init: stream the runtime image
		// through the LibOS filesystem, once per instance (the paper's
		// §8.5 file-reading bottleneck at higher instance counts). A
		// warm clone skips this entirely — the initialised runtime pages
		// arrived with the snapshot.
		if err := asstd.MountFS(env); err != nil {
			return err
		}
		if _, err := asstd.ReadFile(env, vf.RuntimeImage); err != nil {
			return fmt.Errorf("visor: runtime image: %w", err)
		}
	}
	if vf.InitCost > 0 && r.opts.CostScale > 0 && !warm {
		// Interpreter bootstrap happens once per WFD (shared address
		// space); later instances find the runtime already initialised,
		// and warm clones inherit the template's paid bootstrap.
		if r.wfd.FirstRuntimeInit(vf.RuntimeImage) {
			time.Sleep(time.Duration(float64(vf.InitCost) * r.opts.CostScale))
		}
	}
	l := asvm.NewLinker()
	asstd.BindWASISlots(l, env, gc.in, gc.out)
	inst, err := l.Instantiate(vf.Prog, asvm.Config{
		Engine:         vf.Engine,
		OverheadFactor: scaledFactor(vf.OverheadFactor, r.opts.CostScale),
	})
	if err != nil {
		return err
	}
	defer inst.Release()
	_, err = inst.Call(vf.Entry, gc.args...)
	return err
}
