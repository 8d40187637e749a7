// Package pool keeps warm WFD instances so invocations skip the cold
// start the paper's §8 evaluation measures. One Pool exists per
// workflow: it boots a single template WFD — modules loaded, guest
// runtime image read and InitCost interpreter bootstrap paid exactly
// once — seals the template's address space, and then serves
// invocations by snapshot/fork: each Get hands out a copy-on-write
// clone (internal/mem.Space.Fork) with fresh MPK keys, cut in
// microseconds instead of the hundreds of milliseconds a Python-tier
// cold boot costs.
//
// The pool keeps a FIFO stock of pre-forked clones between Min and Max,
// evicts clones idle past IdleTTL, and refills in the background. A
// demand-driven autoscaler sizes the stock from the arrival rate over a
// sliding window, so a hot workflow grows toward Max and an idle one
// decays toward Min. All maintenance runs through Maintain, a single
// deterministic step driven either by the background ticker or directly
// by tests — with a fixed Seed the refill jitter, and therefore the
// pool's structural trace, is reproducible.
package pool

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/core"
	"alloystack/internal/trace"
)

// ErrClosed is returned by Get after Stop.
var ErrClosed = errors.New("pool: stopped")

// Runtime names one guest runtime image the template warms up: the
// image is read through the template's filesystem and its InitCost paid
// once, so clones inherit an initialized interpreter.
type Runtime struct {
	// Image is the runtime image path inside the WFD filesystem
	// (e.g. workloads.PyRuntimePath).
	Image string
	// InitCost is the interpreter bootstrap cost at CostScale 1.
	InitCost time.Duration
}

// Spec describes the template a Pool boots for one workflow.
type Spec struct {
	// Workflow names the pool (stats, metrics, asctl pools).
	Workflow string
	// Core configures the template WFD. The template owns the disk
	// image: clones adopt its mounted filesystem. Socket workflows
	// cannot be pooled (clones would collide on the NIC address), so
	// Core.Hub must be nil.
	Core core.Options
	// Modules lists as-libos modules to preload into the snapshot.
	Modules []string
	// Runtimes lists guest runtime images to warm up.
	Runtimes []Runtime
}

// Config sizes and paces a Pool.
type Config struct {
	// Min and Max bound the warm stock (defaults 1 and 4).
	Min, Max int
	// IdleTTL evicts clones idle longer than this (default 2m; stock
	// never drops below the autoscaler's current target).
	IdleTTL time.Duration //asvet:allow unreachable -- test seam: the pool and lifecycle tests shorten eviction time through it
	// RefillEvery is the background maintenance period (default 1s).
	RefillEvery time.Duration
	// Seed seeds the jitter RNG; a fixed seed makes maintenance timing
	// reproducible (the determinism contract of the chaos suite).
	Seed int64
	// Window is the arrival-rate window the autoscaler sizes from
	// (default 30s).
	Window time.Duration //asvet:allow unreachable -- test seam, see IdleTTL
	// Clock is the time source (tests inject a fake; default time.Now).
	Clock func() time.Time
	// Trace, when set, records pool lifecycle spans (template boot,
	// fork, evict) for the structural fingerprint.
	Trace *trace.Tracer //asvet:allow unreachable -- test seam: the pool fingerprint test records lifecycle spans through it
}

// Pool serves warm clones of one workflow's template WFD.
type Pool struct {
	spec Spec
	cfg  Config
	rng  *rand.Rand

	template *core.WFD
	bootCost time.Duration

	mu       sync.Mutex
	idle     []idleClone // FIFO: oldest first
	closed   bool
	started  bool
	arrivals []time.Time // Get timestamps inside Window

	hits      int64
	misses    int64
	forks     int64
	evictions int64
	recycled  int64

	stop chan struct{}
	done chan struct{}
}

// idleClone is one pre-forked instance waiting for work.
type idleClone struct {
	wfd   *core.WFD
	since time.Time
}

// New boots the template synchronously (paying the cold start once) and
// pre-forks Min clones. Call Start to run background maintenance, or
// drive Maintain directly.
func New(spec Spec, cfg Config) (*Pool, error) {
	if spec.Core.Hub != nil {
		return nil, fmt.Errorf("pool: %s: socket workflows cannot be pooled", spec.Workflow)
	}
	if cfg.Min <= 0 {
		cfg.Min = 1
	}
	if cfg.Max < cfg.Min {
		cfg.Max = cfg.Min * 4
	}
	if cfg.IdleTTL <= 0 {
		cfg.IdleTTL = 2 * time.Minute
	}
	if cfg.RefillEvery <= 0 {
		cfg.RefillEvery = time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = 30 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now //asvet:allow wallclock -- the approved clock injection point
	}

	p := &Pool{
		spec: spec,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := p.bootTemplate(); err != nil {
		return nil, err
	}
	p.Maintain(cfg.Clock())
	return p, nil
}

// bootTemplate instantiates and warms the template: modules preloaded,
// runtime images read, InitCost paid, space sealed.
func (p *Pool) bootTemplate() error {
	start := p.cfg.Clock()
	span := p.cfg.Trace.Start("template-boot:"+p.spec.Workflow, trace.CatPool)
	defer span.End()

	w, err := core.Instantiate(p.spec.Core)
	if err != nil {
		return fmt.Errorf("pool: %s template: %w", p.spec.Workflow, err)
	}
	for _, mod := range p.spec.Modules {
		if err := w.NS.Load(mod); err != nil {
			w.Destroy()
			return fmt.Errorf("pool: %s preload %s: %w", p.spec.Workflow, mod, err)
		}
	}
	for _, rt := range p.spec.Runtimes {
		rt := rt
		err := w.Run("__warmup", func(env *asstd.Env) error {
			if err := asstd.MountFS(env); err != nil {
				return err
			}
			_, err := asstd.ReadFile(env, rt.Image)
			return err
		})
		if err != nil {
			w.Destroy()
			return fmt.Errorf("pool: %s warm %s: %w", p.spec.Workflow, rt.Image, err)
		}
		// The interpreter bootstrap, paid once for the whole pool.
		if rt.InitCost > 0 && p.spec.Core.CostScale > 0 {
			time.Sleep(time.Duration(float64(rt.InitCost) * p.spec.Core.CostScale))
		}
		w.MarkRuntimeWarm(rt.Image)
	}
	w.Seal()
	p.template = w
	p.bootCost = p.cfg.Clock().Sub(start)
	return nil
}

// Get pops a warm clone, FIFO. A false second result means the pool is
// empty (or stopped): the caller boots cold and the autoscaler counts
// the miss. The returned clone must be given back via Recycle.
func (p *Pool) Get() (*core.WFD, bool) {
	now := p.cfg.Clock()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.noteArrivalLocked(now)
	if p.closed || len(p.idle) == 0 {
		p.misses++
		return nil, false
	}
	c := p.idle[0]
	p.idle = p.idle[1:]
	p.hits++
	return c.wfd, true
}

// Recycle retires a clone handed out by Get. Clones are single-use —
// their heaps and slot tables carry invocation state — so the clone is
// destroyed and the stock replenished by the next Maintain.
func (p *Pool) Recycle(w *core.WFD) {
	if w != nil {
		w.Destroy()
	}
	p.mu.Lock()
	p.recycled++
	p.mu.Unlock()
}

// Maintain runs one deterministic maintenance step at time now: evict
// clones idle past IdleTTL (never below the current target), then fork
// until the stock reaches the target. Returns forks done minus evicts.
func (p *Pool) Maintain(now time.Time) int {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0
	}
	target := p.targetLocked(now)

	// Evict from the front (oldest) while over target and idle too long.
	var evict []*core.WFD
	for len(p.idle) > target && now.Sub(p.idle[0].since) >= p.cfg.IdleTTL {
		evict = append(evict, p.idle[0].wfd)
		p.idle = p.idle[1:]
		p.evictions++
	}
	need := target - len(p.idle)
	p.mu.Unlock()

	for _, w := range evict {
		span := p.cfg.Trace.Start("pool-evict:"+p.spec.Workflow, trace.CatPool)
		w.Destroy()
		span.End()
	}

	forked := 0
	for i := 0; i < need; i++ {
		span := p.cfg.Trace.Start("pool-fork:"+p.spec.Workflow, trace.CatPool)
		clone, err := p.template.Fork()
		span.End()
		if err != nil {
			break
		}
		p.mu.Lock()
		if p.closed || len(p.idle) >= p.cfg.Max {
			p.mu.Unlock()
			clone.Destroy()
			break
		}
		p.idle = append(p.idle, idleClone{wfd: clone, since: now})
		p.forks++
		p.mu.Unlock()
		forked++
	}
	return forked - len(evict)
}

// targetLocked is the autoscaler: clamp(arrivals in Window, Min, Max).
// One warm clone per recent arrival approximates "enough stock to serve
// the next burst at the current rate". Caller holds p.mu.
func (p *Pool) targetLocked(now time.Time) int {
	cutoff := now.Add(-p.cfg.Window)
	keep := p.arrivals[:0]
	for _, a := range p.arrivals {
		if a.After(cutoff) {
			keep = append(keep, a)
		}
	}
	p.arrivals = keep
	target := len(p.arrivals)
	if target < p.cfg.Min {
		target = p.cfg.Min
	}
	if target > p.cfg.Max {
		target = p.cfg.Max
	}
	return target
}

// noteArrivalLocked records a Get for the autoscaler window.
func (p *Pool) noteArrivalLocked(now time.Time) {
	p.arrivals = append(p.arrivals, now)
	// Bound the slice under sustained load; the window prune in
	// targetLocked does the precise trim.
	if len(p.arrivals) > 4*p.cfg.Max && len(p.arrivals) > 64 {
		p.arrivals = append(p.arrivals[:0], p.arrivals[len(p.arrivals)/2:]...)
	}
}

// refillJitter spreads maintenance ticks by ±10% of RefillEvery so many
// pools do not refill in lockstep.
const refillJitter = 0.1

// Start runs background maintenance until Stop. Tick spacing is
// RefillEvery ± refillJitter, drawn from the seeded RNG.
func (p *Pool) Start() {
	p.mu.Lock()
	if p.started || p.closed {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	go func() {
		defer close(p.done)
		for {
			p.mu.Lock()
			jitter := 1 + refillJitter*(2*p.rng.Float64()-1)
			p.mu.Unlock()
			d := time.Duration(float64(p.cfg.RefillEvery) * jitter)
			select {
			case <-p.stop:
				return
			case <-time.After(d):
				p.Maintain(p.cfg.Clock())
			}
		}
	}()
}

// Stop halts maintenance and destroys the stock and the template.
func (p *Pool) Stop() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	started := p.started
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()

	close(p.stop)
	if started {
		<-p.done
	}
	for _, c := range idle {
		c.wfd.Destroy()
	}
	p.template.Destroy()
}

// Stats is a pool snapshot for /metrics, /pools and asctl.
type Stats struct {
	Workflow     string  `json:"workflow"`
	Warm         int     `json:"warm"`
	Target       int     `json:"target"`
	Min          int     `json:"min"`
	Max          int     `json:"max"`
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	Forks        int64   `json:"forks"`
	Evictions    int64   `json:"evictions"`
	Recycled     int64   `json:"recycled"`
	TemplateBoot float64 `json:"template_boot_ms"`
}

// Stats snapshots the pool.
func (p *Pool) Stats() Stats {
	now := p.cfg.Clock()
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Workflow:     p.spec.Workflow,
		Warm:         len(p.idle),
		Target:       p.targetLocked(now),
		Min:          p.cfg.Min,
		Max:          p.cfg.Max,
		Hits:         p.hits,
		Misses:       p.misses,
		Forks:        p.forks,
		Evictions:    p.evictions,
		Recycled:     p.recycled,
		TemplateBoot: float64(p.bootCost) / float64(time.Millisecond),
	}
}

// Manager indexes pools by workflow for the watchdog and asctl.
type Manager struct {
	mu    sync.Mutex
	pools map[string]*Pool
}

// NewManager returns an empty Manager.
func NewManager() *Manager {
	return &Manager{pools: make(map[string]*Pool)}
}

// Add registers a pool under its workflow name.
func (m *Manager) Add(p *Pool) {
	m.mu.Lock()
	m.pools[p.spec.Workflow] = p
	m.mu.Unlock()
}

// Get returns the workflow's pool, or nil.
func (m *Manager) Get(workflow string) *Pool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pools[workflow]
}

// Stats snapshots every pool, sorted by workflow name.
func (m *Manager) Stats() []Stats {
	m.mu.Lock()
	all := make([]*Pool, 0, len(m.pools))
	for _, p := range m.pools {
		all = append(all, p)
	}
	m.mu.Unlock()
	out := make([]Stats, 0, len(all))
	for _, p := range all {
		out = append(out, p.Stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Workflow < out[j].Workflow })
	return out
}

// StopAll stops every pool.
func (m *Manager) StopAll() {
	m.mu.Lock()
	all := make([]*Pool, 0, len(m.pools))
	for _, p := range m.pools {
		all = append(all, p)
	}
	m.mu.Unlock()
	for _, p := range all {
		p.Stop()
	}
}
