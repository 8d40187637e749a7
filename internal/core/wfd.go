// Package core implements the WorkFlow Domain (WFD), the paper's central
// abstraction (§3.1): a single simulated address space binding all the
// entities a workflow needs — user functions, the as-libos instance, heap
// memory, MPK partitions — with strong isolation between WFDs and weak
// (tenant-internal) isolation inside one.
//
// A WFD is instantiated per workflow invocation and destroyed when the
// workflow completes, exactly the lifecycle the visor drives in Figure 4.
// Instantiation is the cold-start path measured in Figure 10: creating
// the address space, partitioning it with protection keys, standing up
// the LibOS state and the loader namespace — with no as-libos module
// loaded until a function's first call needs one (unless on-demand
// loading is disabled for the AS-load-all ablation).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/blockdev"
	"alloystack/internal/libos"
	"alloystack/internal/loader"
	"alloystack/internal/mem"
	"alloystack/internal/mpk"
	"alloystack/internal/netstack"
	"alloystack/internal/ramfs"
)

// Errors returned by WFD operations.
var (
	ErrDestroyed = errors.New("core: WFD destroyed")
	// ErrFunctionFault wraps a panic inside a user function; the WFD
	// survives (fault isolation, §3.1).
	ErrFunctionFault = errors.New("core: function fault")
)

// Calibrated base cold-start work: the paper's 1.3 ms covers loading the
// WFD's dynamic libraries, resolving symbols and initialising the
// user/system stack split — work a Go reproduction does not literally
// perform, so it is injected here and scaled by Options.CostScale.
const baseInitCost = 700 * time.Microsecond

// Options configures a WFD instantiation.
type Options struct {
	// BufHeapSize bounds the intermediate-data heap (default 1 GiB).
	BufHeapSize uint64

	// DiskImage backs the fatfs module; a non-nil Ramfs selects the
	// in-memory filesystem instead (Figure 16).
	DiskImage blockdev.Device
	Ramfs     *ramfs.FS

	// Hub and IP connect the WFD's socket module to the virtual network.
	Hub *netstack.Hub
	IP  netstack.Addr

	// Stdout receives stdio output.
	Stdout io.Writer

	// OnDemand enables on-demand module loading (the AlloyStack
	// default). When false, every module loads at instantiation — the
	// AS-load-all arm of Figures 10 and 14.
	OnDemand bool

	// IFI enables inter-function isolation: each function instance gets
	// a private protection key (§3.3).
	IFI bool

	// CostScale scales all calibrated simulated costs (module loads,
	// base init). 0 disables them entirely — unit tests run at 0,
	// benchmarks at 1.
	CostScale float64

	// Registry overrides the module registry (tests); defaults to the
	// full as-libos registry.
	Registry *loader.Registry
}

// WFD is one live workflow domain.
type WFD struct {
	opts Options

	Space  *mem.Space
	Domain *mpk.Domain
	LibOS  *libos.LibOS
	NS     *loader.Namespace

	sysPKRU  mpk.PKRU
	userPKRU mpk.PKRU

	// ColdStart is the measured instantiation latency (event to
	// ready-to-run-user-code), the Figure 10 quantity.
	ColdStart time.Duration

	mu        sync.Mutex
	destroyed bool
	live      atomic.Int32 // attempts running, abandoned ones included: see attempt
	envs      []*asstd.Env
	faults    int

	// forked marks a WFD cut from a warm template by Fork.
	forked bool
	// runtimeWarm holds guest-runtime images whose pages arrived with the
	// snapshot: a warm boot skips both the image read and the InitCost
	// bootstrap for them. Populated by MarkRuntimeWarm (pool warmup) and
	// inherited by forks.
	runtimeWarm map[string]bool
	// runtimeInit tracks which runtime images already paid InitCost in
	// this WFD, so a cold boot bootstraps each interpreter exactly once
	// no matter how many instances share it. Both are made on first write.
	runtimeInit map[string]bool
}

// sharedRegistry is the default module registry; it is stateless, so all
// WFDs can share it (each namespace instantiates its own modules).
var (
	sharedRegistryOnce sync.Once
	sharedRegistry     *loader.Registry
)

// Registry returns the shared default as-libos registry.
func Registry() *loader.Registry {
	sharedRegistryOnce.Do(func() { sharedRegistry = libos.NewRegistry() })
	return sharedRegistry
}

// Instantiate creates a WFD: address space, MPK partitions, LibOS state
// and loader namespace. With OnDemand set no module is loaded yet.
func Instantiate(opts Options) (*WFD, error) {
	start := time.Now()
	if opts.Registry == nil {
		opts.Registry = Registry()
	}

	space := mem.NewSpace(0)
	domain := mpk.NewDomain(space)

	// Carve the system partition: trampoline code, visor-side state and
	// LibOS metadata pages, bound to the system key so user contexts
	// cannot touch them. The region is small; module and buffer memory
	// is mapped later by the modules themselves.
	sysBase, err := space.Map(16 * mem.PageSize)
	if err != nil {
		return nil, err
	}
	if err := domain.PkeyMprotect(sysBase, 16*mem.PageSize, mpk.KeySystem); err != nil {
		return nil, err
	}

	l, err := libos.New(libos.Config{
		Space:       space,
		Domain:      domain,
		BufHeapSize: opts.BufHeapSize,
		DiskImage:   opts.DiskImage,
		Ramfs:       opts.Ramfs,
		Hub:         opts.Hub,
		IP:          opts.IP,
		Stdout:      opts.Stdout,
	})
	if err != nil {
		return nil, err
	}

	ns := loader.NewNamespace(opts.Registry, l)
	ns.CostScale = opts.CostScale

	w := &WFD{
		opts:     opts,
		Space:    space,
		Domain:   domain,
		LibOS:    l,
		NS:       ns,
		sysPKRU:  mpk.AllowAll,
		userPKRU: mpk.AllowAll.WithRights(mpk.KeySystem, false, false),
	}

	// The calibrated base init work (dynamic libraries, symbol tables,
	// stack split — see the constant above).
	if opts.CostScale > 0 {
		time.Sleep(time.Duration(float64(baseInitCost) * opts.CostScale))
	}

	if !opts.OnDemand {
		if err := ns.LoadAll(); err != nil {
			w.Destroy()
			return nil, err
		}
	}
	w.ColdStart = time.Since(start)
	return w, nil
}

// NewEnv creates the execution environment for one function instance.
func (w *WFD) NewEnv(funcName string) (*asstd.Env, error) {
	env := new(asstd.Env)
	if err := w.InitEnv(env, funcName); err != nil {
		return nil, err
	}
	return env, nil
}

// InitEnv makes env, a zero Env its caller allocated, the named
// function's execution environment, as NewEnv does for a new one. Under
// IFI the function receives a private protection key.
func (w *WFD) InitEnv(env *asstd.Env, funcName string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.destroyed {
		return ErrDestroyed
	}
	if w.opts.IFI {
		key, err := w.Domain.AllocKey()
		if err != nil {
			return err
		}
		// The context is born directly in the IFI domain: constructing it
		// with the final PKRU (instead of mutating a user-domain context)
		// keeps raw WritePKRU calls out of the setup path entirely.
		ifiPKRU := mpk.DenyAllButDefault().WithRights(key, true, true)
		env.Init(funcName, w.NS, w.Space, ifiPKRU, w.sysPKRU)
		env.EnableIFI(w.Domain, key)
	} else {
		env.Init(funcName, w.NS, w.Space, w.userPKRU, w.sysPKRU)
	}
	w.envs = append(w.envs, env)
	return nil
}

// ReserveEnvs makes room for n more envs: a run grows the list once.
func (w *WFD) ReserveEnvs(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.envs = slices.Grow(w.envs, n)
}

// Body is the code of one function attempt. A caller that keeps an
// attempt's state in a record passes the record: no closure per attempt.
type Body interface{ Run(env *asstd.Env) error }

// bodyFunc is a plain func as a Body.
type bodyFunc func(env *asstd.Env) error

func (f bodyFunc) Run(env *asstd.Env) error { return f(env) }

// Run executes fn as the named function with fault isolation: a panic in
// user code is converted into an error and the WFD survives (§3.1 —
// "failures caused by data issues or bugs do not affect other WFDs", and
// single-function restart stays possible because the as-libos state and
// intermediate buffers remain intact).
func (w *WFD) Run(funcName string, fn func(env *asstd.Env) error) error {
	env, err := w.NewEnv(funcName)
	if err != nil {
		return err
	}
	return w.RunEnv(env, fn)
}

// RunEnv executes fn under an existing env, as Run does.
func (w *WFD) RunEnv(env *asstd.Env, fn func(env *asstd.Env) error) error {
	return w.RunCtx(context.Background(), env, bodyFunc(fn))
}

// RunCtx executes body under env, made by NewEnv or InitEnv, with fault
// isolation. It refuses to start on a destroyed WFD (ErrDestroyed), and
// counts the attempt live until body returns, so Destroy never recycles
// memory that a running function can still see. It is bounded by ctx:
// if the context is cancelled or its deadline passes before body
// returns, RunCtx returns the context's error (wrapped) immediately.
// The abandoned attempt keeps running in the background until it
// finishes — the simulation cannot preempt a Go function mid-body, just
// as the paper's runtime cannot interrupt a function between restart
// points — but its result is discarded and its panic, if any, is still
// absorbed by the WFD. A ctx that can never be done (Done returns nil)
// bounds nothing, so body runs on the caller's goroutine, with no
// channel.
func (w *WFD) RunCtx(ctx context.Context, env *asstd.Env, body Body) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %s not started: %w", env.FuncName, err)
	}
	w.mu.Lock()
	if w.destroyed {
		w.mu.Unlock()
		return ErrDestroyed
	}
	w.live.Add(1)
	w.mu.Unlock()
	if ctx.Done() == nil {
		return w.attempt(env, body)
	}
	done := make(chan error, 1)
	go func() { done <- w.attempt(env, body) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("core: %s abandoned: %w", env.FuncName, ctx.Err())
	}
}

// attempt runs body, an attempt RunCtx counted live, absorbing its
// panic. The count goes up under w.mu, in the critical section that
// finds the WFD not destroyed, and down once body has returned; Destroy
// reads it under w.mu after marking the WFD destroyed, so a zero there
// means no attempt is running or can start.
func (w *WFD) attempt(env *asstd.Env, body Body) (err error) {
	defer func() {
		w.live.Add(-1)
		if r := recover(); r != nil {
			w.mu.Lock()
			w.faults++
			w.mu.Unlock()
			err = fmt.Errorf("%w: %s: %v", ErrFunctionFault, env.FuncName, r)
		}
	}()
	return body.Run(env)
}

// Faults reports how many function faults the WFD absorbed.
func (w *WFD) Faults() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.faults
}

// MemoryUsage reports the bytes currently mapped in the WFD space — the
// per-WFD memory metric behind Figure 17(b).
func (w *WFD) MemoryUsage() uint64 {
	return w.Space.Mapped()
}

// Crossings sums the PKRU writes of every function env the WFD created —
// two per syscall trampoline, more under IFI where buffers are rebound —
// the per-run MPK cost the AS-IFI rows of Table 4 expose.
func (w *WFD) Crossings() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var n uint64
	for _, env := range w.envs {
		n += env.Crossings()
	}
	return n
}

// Destroy tears down the WFD: modules shut down in reverse load order,
// LibOS resources (fds, network stack) are released, and the address
// space is released (mem.Space.Release), which recycles its arrays
// unless a view of it escaped. An attempt still running, one RunCtx
// abandoned at a deadline, keeps the space's arrays out of the
// recycling: the space is dropped to the GC instead. Idempotent.
func (w *WFD) Destroy() {
	w.mu.Lock()
	if w.destroyed {
		w.mu.Unlock()
		return
	}
	w.destroyed = true
	idle := w.live.Load() == 0
	w.mu.Unlock()
	w.NS.Shutdown()
	w.LibOS.Shutdown()
	if idle {
		w.Space.Release()
	}
}

// Destroyed reports whether the WFD has been torn down.
func (w *WFD) Destroyed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.destroyed
}
