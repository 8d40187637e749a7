package pool

import (
	"errors"
	"sort"
	"testing"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/blockdev"
	"alloystack/internal/core"
	"alloystack/internal/mem"
	"alloystack/internal/trace"
)

// testSpec builds a pool spec over a counting device holding a fake
// 64 KiB runtime image at /RT.BIN.
func testSpec(t *testing.T, workflow string) (Spec, *blockdev.Counting) {
	t.Helper()
	dev := &blockdev.Counting{Inner: blockdev.NewMemDisk(8 << 20)}

	// Stage the runtime image the way the visor stages workflow inputs:
	// through a scratch WFD writing to the shared device.
	stage, err := core.Instantiate(core.Options{
		OnDemand: true, BufHeapSize: 8 << 20, DiskImage: dev,
	})
	if err != nil {
		t.Fatalf("stage Instantiate: %v", err)
	}
	err = stage.Run("stage", func(env *asstd.Env) error {
		if err := asstd.MountFS(env); err != nil {
			return err
		}
		return asstd.WriteFile(env, "/RT.BIN", make([]byte, 64<<10))
	})
	stage.Destroy()
	if err != nil {
		t.Fatalf("stage image: %v", err)
	}

	return Spec{
		Workflow: workflow,
		Core: core.Options{
			OnDemand:    true,
			BufHeapSize: 8 << 20,
			DiskImage:   dev,
		},
		Modules:  []string{"mm", "fatfs"},
		Runtimes: []Runtime{{Image: "/RT.BIN", InitCost: 100 * time.Millisecond}},
	}, dev
}

// fakeClock is a manually-advanced time source.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1000, 0)} }
func cfg(c *fakeClock, mutate func(*Config)) Config {
	cfg := Config{Min: 1, Max: 4, IdleTTL: time.Minute, Window: 30 * time.Second, Clock: c.Now}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// TestWarmClonesDoZeroImageReadsAndInitSleeps is the acceptance-
// criteria proof: after template boot, handing out and running warm
// clones performs zero device reads (the §8.5 file-reading bottleneck
// disappears) and zero InitCost sleeps (the clone inherits the
// initialized interpreter, so serving is orders of magnitude faster
// than the template's paid bootstrap).
func TestWarmClonesDoZeroImageReadsAndInitSleeps(t *testing.T) {
	spec, dev := testSpec(t, "wf")
	spec.Core.CostScale = 1 // real module-load + InitCost sleeps for the template

	bootStart := time.Now()
	p, err := New(spec, cfg(newFakeClock(), func(c *Config) { c.Min = 2 }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Stop()
	templateBoot := time.Since(bootStart)
	if templateBoot < 100*time.Millisecond {
		t.Fatalf("template boot %v paid no InitCost", templateBoot)
	}

	reads0, _, bytes0, _ := dev.Stats()
	serveStart := time.Now()
	for i := 0; i < 2; i++ {
		w, ok := p.Get()
		if !ok {
			t.Fatalf("Get %d: pool empty", i)
		}
		if !w.RuntimeWarm("/RT.BIN") {
			t.Fatal("clone runtime not warm")
		}
		if w.FirstRuntimeInit("/RT.BIN") {
			t.Fatal("clone would sleep InitCost")
		}
		err := w.Run("serve", func(env *asstd.Env) error {
			buf, err := asstd.NewBuffer(env, "out", 512)
			if err != nil {
				return err
			}
			return buf.Free()
		})
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		p.Recycle(w)
	}
	served := time.Since(serveStart)

	reads, _, bytesRead, _ := dev.Stats()
	if reads != reads0 || bytesRead != bytes0 {
		t.Fatalf("warm serving read the device: reads %d->%d bytes %d->%d",
			reads0, reads, bytes0, bytesRead)
	}
	if served > templateBoot/2 {
		t.Fatalf("2 warm serves took %v vs template boot %v; warm path is paying init",
			served, templateBoot)
	}
	st := p.Stats()
	if st.Hits != 2 || st.Recycled != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAutoscalerGrowsAndShrinksStock(t *testing.T) {
	spec, _ := testSpec(t, "wf")
	clock := newFakeClock()
	p, err := New(spec, cfg(clock, func(c *Config) {
		c.Min, c.Max = 1, 3
		c.IdleTTL = 10 * time.Second
	}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Stop()

	if st := p.Stats(); st.Warm != 1 {
		t.Fatalf("initial stock = %d, want Min=1", st.Warm)
	}

	// Five arrivals in the window push the target to Max=3.
	for i := 0; i < 5; i++ {
		if w, ok := p.Get(); ok {
			p.Recycle(w)
		}
	}
	p.Maintain(clock.Now())
	if st := p.Stats(); st.Warm != 3 || st.Target != 3 {
		t.Fatalf("after burst: warm=%d target=%d, want 3/3", st.Warm, st.Target)
	}

	// Quiet past the window: target decays to Min; idle clones age past
	// TTL and are evicted down to Min.
	clock.Advance(40 * time.Second)
	p.Maintain(clock.Now())
	st := p.Stats()
	if st.Warm != 1 || st.Target != 1 {
		t.Fatalf("after quiet: warm=%d target=%d, want 1/1", st.Warm, st.Target)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

func TestIdleTTLKeepsFreshClones(t *testing.T) {
	spec, _ := testSpec(t, "wf")
	clock := newFakeClock()
	p, err := New(spec, cfg(clock, func(c *Config) {
		c.Min, c.Max = 1, 3
		c.IdleTTL = time.Hour
	}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Stop()
	for i := 0; i < 5; i++ {
		if w, ok := p.Get(); ok {
			p.Recycle(w)
		}
	}
	p.Maintain(clock.Now())

	// Past the window but inside the TTL: over-target clones stay.
	clock.Advance(40 * time.Second)
	p.Maintain(clock.Now())
	if st := p.Stats(); st.Warm != 3 || st.Evictions != 0 {
		t.Fatalf("fresh clones evicted: %+v", st)
	}
}

// TestMaintenanceDeterministic drives two identically-seeded pools
// through the same arrival schedule and asserts their structural trace
// fingerprints match — the chaos-suite determinism contract.
func TestMaintenanceDeterministic(t *testing.T) {
	run := func() string {
		spec, _ := testSpec(t, "wf")
		tr := trace.New("pool", trace.Options{})
		clock := newFakeClock()
		p, err := New(spec, cfg(clock, func(c *Config) {
			c.Min, c.Max = 1, 3
			c.IdleTTL = 10 * time.Second
			c.Seed = 42
			c.Trace = tr
		}))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer p.Stop()
		for step := 0; step < 4; step++ {
			for i := 0; i <= step; i++ {
				if w, ok := p.Get(); ok {
					p.Recycle(w)
				}
			}
			clock.Advance(5 * time.Second)
			p.Maintain(clock.Now())
		}
		clock.Advance(time.Minute)
		p.Maintain(clock.Now())
		return tr.Fingerprint()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("maintenance fingerprints differ:\n%s\n%s", a, b)
	}
}

func TestStoppedPoolMisses(t *testing.T) {
	spec, _ := testSpec(t, "wf")
	p, err := New(spec, cfg(newFakeClock(), nil))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Stop()
	if _, ok := p.Get(); ok {
		t.Fatal("stopped pool handed out a clone")
	}
	p.Stop() // idempotent
}

// TestTemplateIsSealed: right after bootTemplate, before any clone is
// forked (a fork seals its parent too), a LibOS write into the template
// is refused, so no run on the template can change the snapshot its
// clones fork from.
func TestTemplateIsSealed(t *testing.T) {
	spec, _ := testSpec(t, "wf")
	p := &Pool{spec: spec, cfg: cfg(newFakeClock(), nil)}
	if err := p.bootTemplate(); err != nil {
		t.Fatalf("bootTemplate: %v", err)
	}
	defer p.template.Destroy()
	err := p.template.Run("probe", func(env *asstd.Env) error {
		_, err := asstd.NewBuffer(env, "probe", 64)
		return err
	})
	if !errors.Is(err, mem.ErrSealed) {
		t.Fatalf("NewBuffer in the template = %v, want mem.ErrSealed", err)
	}
}

func TestManagerIndexesPools(t *testing.T) {
	m := NewManager()
	specA, _ := testSpec(t, "alpha")
	specB, _ := testSpec(t, "beta")
	a, err := New(specA, cfg(newFakeClock(), nil))
	if err != nil {
		t.Fatalf("New a: %v", err)
	}
	b, err := New(specB, cfg(newFakeClock(), nil))
	if err != nil {
		t.Fatalf("New b: %v", err)
	}
	m.Add(a)
	m.Add(b)
	defer m.StopAll()

	if m.Get("alpha") != a || m.Get("missing") != nil {
		t.Fatal("Get routing broken")
	}
	st := m.Stats()
	if len(st) != 2 || st[0].Workflow != "alpha" || st[1].Workflow != "beta" {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestManagerStatsDeterministic locks in the sorted snapshot /pools,
// asctl pools and the node's /cluster advertisement depend on: pools
// added in scrambled order must report in workflow order, identically
// on every scrape — map iteration order must never leak out.
func TestManagerStatsDeterministic(t *testing.T) {
	m := NewManager()
	defer m.StopAll()
	names := []string{"zeta", "mu", "alpha", "omicron", "beta", "kappa", "nu", "iota"}
	for _, name := range names {
		spec, _ := testSpec(t, name)
		p, err := New(spec, cfg(newFakeClock(), nil))
		if err != nil {
			t.Fatalf("New %s: %v", name, err)
		}
		m.Add(p)
	}
	want := append([]string(nil), names...)
	sort.Strings(want)
	for scrape := 0; scrape < 5; scrape++ {
		st := m.Stats()
		if len(st) != len(want) {
			t.Fatalf("scrape %d: %d pools, want %d", scrape, len(st), len(want))
		}
		for i, s := range st {
			if s.Workflow != want[i] {
				t.Fatalf("scrape %d: Stats[%d].Workflow = %q, want %q (sorted)",
					scrape, i, s.Workflow, want[i])
			}
		}
	}
}

// TestBackgroundMaintenance exercises the Start/Stop ticker path with
// real time (fast ticks).
func TestBackgroundMaintenance(t *testing.T) {
	spec, _ := testSpec(t, "wf")
	p, err := New(spec, Config{
		Min: 2, Max: 4,
		RefillEvery: 5 * time.Millisecond,
		Seed:        7,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Start()
	// Drain the stock; the background loop must refill to Min.
	for {
		if _, ok := p.Get(); !ok {
			break
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Warm < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("background refill never reached Min: %+v", p.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()
}
