// Snapshot/fork boot: a warm-pool template WFD is instantiated once,
// its guest runtime initialised and its modules loaded, then each
// invocation receives a copy-on-write clone of the template's address
// space with fresh MPK keys. The clone replays the template's module
// load list at zero simulated cost — the snapshot already holds the
// initialised module pages — so a warm boot skips the image reads and
// the InitCost interpreter bootstrap that dominate the paper's §8 cold
// start numbers.
package core

import (
	"fmt"
	"io"
	"maps"
	"time"

	"alloystack/internal/libos"
	"alloystack/internal/loader"
	"alloystack/internal/mpk"
	"alloystack/internal/netstack"
)

// Fork cuts a warm clone from the WFD. The template's address space is
// sealed and shared copy-on-write; the clone gets a fresh MPK domain
// (fresh protection keys), its own LibOS state adopting the template's
// mounted filesystem, and a namespace with the template's modules
// replayed at zero cost. The clone has no virtual NIC (it cannot share
// the template's address, so socket-using workflows boot cold) and
// writes to the template's stdout until SetStdout re-points it. Its
// ColdStart is the measured fork latency — the warm-boot analogue of
// the Figure 10 quantity.
func (w *WFD) Fork() (*WFD, error) {
	start := time.Now()

	w.mu.Lock()
	if w.destroyed {
		w.mu.Unlock()
		return nil, ErrDestroyed
	}
	warm, inited := maps.Clone(w.runtimeWarm), maps.Clone(w.runtimeInit)
	opts := w.opts
	w.mu.Unlock()

	space := w.Space.Fork()
	domain := mpk.NewDomain(space)

	opts.Hub, opts.IP = nil, netstack.Addr{}

	cfg := libos.Config{
		Space:       space,
		Domain:      domain,
		BufHeapSize: opts.BufHeapSize,
		DiskImage:   opts.DiskImage,
		Ramfs:       opts.Ramfs,
		Hub:         opts.Hub,
		IP:          opts.IP,
		Stdout:      opts.Stdout,
	}
	// Adopt the template's mounted filesystem: the snapshot already holds
	// the mount state, so the clone's fatfs load touches no device.
	if fat := w.LibOS.Fat(); fat != nil {
		cfg.Fat = fat
	} else if ram := w.LibOS.Ram(); ram != nil {
		cfg.Ramfs = ram
	}
	l, err := libos.New(cfg)
	if err != nil {
		return nil, err
	}

	// Replay the template's load list at zero simulated cost: the pages
	// those loads produced are in the snapshot; the replay only rebuilds
	// the Go-side symbol tables the simulation cannot share.
	ns := loader.NewNamespace(opts.Registry, l)
	ns.CostScale = 0
	for _, mod := range w.NS.LoadedModules() {
		if err := ns.Load(mod); err != nil {
			ns.Shutdown()
			l.Shutdown()
			return nil, fmt.Errorf("core: fork replay %s: %w", mod, err)
		}
	}
	ns.CostScale = opts.CostScale

	child := &WFD{
		opts:        opts,
		Space:       space,
		Domain:      domain,
		LibOS:       l,
		NS:          ns,
		sysPKRU:     mpk.AllowAll,
		userPKRU:    mpk.AllowAll.WithRights(mpk.KeySystem, false, false),
		forked:      true,
		runtimeWarm: warm,
		runtimeInit: inited,
	}
	child.ColdStart = time.Since(start)
	return child, nil
}

// SetStdout redirects the WFD's stdio output. Pooled clones are forked
// before their invocation exists, so the visor re-points them at the
// request's writer on checkout.
func (w *WFD) SetStdout(out io.Writer) {
	w.LibOS.SetStdout(out)
}

// Forked reports whether this WFD was cut from a warm template.
func (w *WFD) Forked() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.forked
}

// Seal freezes the WFD's address space; used by warm pools after
// template warmup so every clone sees exactly the snapshot state.
func (w *WFD) Seal() {
	w.Space.Seal()
}

// MarkRuntimeWarm records that the pages of the guest runtime image are
// part of this WFD's snapshot: boots from (forks of) this WFD skip the
// image read and the InitCost bootstrap for it. Called by warm-pool
// template warmup after it paid both once.
func (w *WFD) MarkRuntimeWarm(image string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.runtimeWarm == nil {
		w.runtimeWarm = make(map[string]bool)
	}
	if w.runtimeInit == nil {
		w.runtimeInit = make(map[string]bool)
	}
	w.runtimeWarm[image] = true
	w.runtimeInit[image] = true
}

// RuntimeWarm reports whether the guest runtime image arrived with the
// snapshot (warm boot: skip read + bootstrap).
func (w *WFD) RuntimeWarm(image string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.runtimeWarm[image]
}

// FirstRuntimeInit records the first InitCost payment for a runtime
// image in this WFD and reports whether the caller is that first one.
// Cold boots bootstrap each interpreter once per WFD, however many
// instances share it.
func (w *WFD) FirstRuntimeInit(image string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.runtimeInit[image] {
		return false
	}
	if w.runtimeInit == nil {
		w.runtimeInit = make(map[string]bool)
	}
	w.runtimeInit[image] = true
	return true
}
