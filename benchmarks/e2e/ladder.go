package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"alloystack/internal/asvm"
	"alloystack/internal/blockdev"
	"alloystack/internal/core"
	"alloystack/internal/fatfs"
	"alloystack/internal/loader"
	"alloystack/internal/scan"
	"alloystack/internal/sched"
	"alloystack/internal/trace"
	"alloystack/internal/workloads"
)

// The layer ladder times each layer alone, through its public functions,
// so a change to one layer has a number of its own to move. The rungs do
// not depend on the workload (only the loader rung takes the workload's
// module set): every traced run repeats the whole ladder, so one traced
// run of any workload shows every layer.

// rungMaxDur cuts a slow rung short once a floor can be taken.
const rungMaxDur = time.Second

// ladder carries what every rung shares: the span the rungs hang under,
// the plan's sample counts, and the first error, after which the
// remaining rungs are skipped.
type ladder struct {
	root *trace.Span
	plan plan
	err  error
}

// sample returns the floor of op's timed windows: it calls op until it
// has plan.rungSamples of them, giving up early once rungMaxDur has
// passed and a floor can already be taken. op returns the window it
// timed itself, so untimed preparation and teardown stay out of it.
func (l *ladder) sample(name string, op func() (time.Duration, error)) time.Duration {
	if l.err != nil {
		return 0
	}
	sp := l.root.Child(name, "ladder")
	defer sp.End()
	samples := make([]time.Duration, 0, l.plan.rungSamples)
	start := time.Now()
	for len(samples) < l.plan.rungSamples {
		if len(samples) >= l.plan.floorSamples && time.Since(start) > rungMaxDur {
			break
		}
		d, err := op()
		if err != nil {
			l.err = fmt.Errorf("%s: %w", name, err)
			return 0
		}
		samples = append(samples, d)
	}
	sp.SetAttr("samples", len(samples))
	fl, err := floor(samples, l.plan.floorSamples)
	l.err = err
	return fl
}

// timed measures one call.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// call is sample for a rung that is one call with nothing untimed
// around it.
func (l *ladder) call(name string, fn func() error) time.Duration {
	return l.sample(name, func() (time.Duration, error) { return timed(fn) })
}

// ladderResult holds the floor of every standalone rung.
type ladderResult struct {
	postGateway, postWatchdog, visorInvoke time.Duration
	route, admit                           time.Duration
	bootDestroy, load                      time.Duration
	fatWrite, fatRead                      time.Duration
	scanVerify                             time.Duration
	interpNsPerStep, aotNsPerStep          float64
}

func runLadder(w workload, seed int64, harness *trace.Tracer, p plan) (*ladderResult, error) {
	root := harness.Start("ladder", "ladder")
	defer root.End()
	l := &ladder{root: root, plan: p}
	var lr ladderResult

	// Front door, one layer at a time: the same no-op request sent to
	// the gateway, straight to the watchdog, and straight into the visor.
	fd, err := newFrontdoor()
	if err != nil {
		return nil, err
	}
	defer fd.close()
	lr.postGateway = l.call("POST gateway", func() error { _, err := fd.post(fd.gwURL); return err })
	lr.postWatchdog = l.call("POST watchdog", func() error { _, err := fd.post(fd.wdURL); return err })
	lr.visorInvoke = l.call("Visor.Invoke", func() error { _, err := fd.visor.Invoke(noopWorkflow, baseRunOptions()); return err })
	lr.route = l.call("Router.Route", func() error {
		if len(fd.gw.Cluster.Route(noopWorkflow)) != 1 {
			return errors.New("router does not rank the one live member")
		}
		return nil
	})

	sc := sched.New(sched.Config{})
	defer sc.Close()
	lr.admit = l.call("Scheduler.Admit+Release", func() error {
		g, err := sc.Admit(context.Background(), noopWorkflow, 0)
		if err != nil {
			return err
		}
		g.Release()
		return nil
	})

	// WFD boot and teardown alone: the cross-check for core.boot_us,
	// which the traced phase reads from RunResult.ColdStart.
	img := blockdev.NewMemDisk(4 << 20)
	fs, err := fatfs.Format(img, fatfs.MkfsOptions{})
	if err != nil {
		return nil, err
	}
	coreOpts := core.Options{DiskImage: img, OnDemand: true, CostScale: 0}
	lr.bootDestroy = l.call("core.Instantiate+Destroy", func() error {
		wfd, err := core.Instantiate(coreOpts)
		if err != nil {
			return err
		}
		wfd.Destroy()
		return nil
	})

	// Module loading alone: a fresh namespace over a booted WFD's LibOS,
	// loading what this workload's functions load.
	lr.load = l.sample("loader.NewNamespace+Load", func() (time.Duration, error) {
		wfd, err := core.Instantiate(coreOpts)
		if err != nil {
			return 0, err
		}
		defer wfd.Destroy()
		var ns *loader.Namespace
		d, err := timed(func() error {
			ns = loader.NewNamespace(core.Registry(), wfd.LibOS)
			ns.CostScale = 0
			for _, mod := range w.modules {
				if err := ns.Load(mod); err != nil {
					return err
				}
			}
			return nil
		})
		ns.Shutdown()
		return d, err
	})

	// The filesystem alone: the payload size the chains spill.
	payload := workloads.GenText(chainPayload, seed)
	lr.fatWrite = l.call("fatfs.WriteFile 64KiB", func() error { return fs.WriteFile("/RUNG.BIN", payload) })
	lr.fatRead = l.call("fatfs.ReadFile 64KiB", func() error {
		got, err := fs.ReadFile("/RUNG.BIN")
		if err == nil && len(got) != len(payload) {
			err = fmt.Errorf("read back %d of %d bytes", len(got), len(payload))
		}
		return err
	})

	// The admission scan alone, uncached: every WordCount guest image.
	guests := []*asvm.Program{workloads.SplitGuest, workloads.WcMapGuest, workloads.RelayGuest, workloads.WcMergeGuest}
	allow := scan.WASIAllowlist()
	lr.scanVerify = l.call("scan.Verify wc guests", func() error {
		for _, g := range guests {
			if _, err := scan.Verify(g, allow); err != nil {
				return err
			}
		}
		return nil
	})

	// The two ASVM engines alone: the mapper guest over seeded text with
	// the host calls served from memory, time divided by steps executed.
	text := workloads.GenText(16<<10, seed)
	for _, eng := range []struct {
		kind asvm.EngineKind
		out  *float64
	}{{asvm.EngineInterp, &lr.interpNsPerStep}, {asvm.EngineAOT, &lr.aotNsPerStep}} {
		// Steps are the same on every sample: the guest is deterministic.
		steps := int64(1)
		d := l.sample("asvm "+eng.kind.String()+" wc-map", func() (time.Duration, error) {
			var err error
			var d time.Duration
			d, steps, err = runMapGuest(eng.kind, text)
			return d, err
		})
		*eng.out = float64(d) / float64(steps)
	}
	return &lr, l.err
}

// runMapGuest runs the WordCount mapper on text with no LibOS behind it:
// slot_size/slot_recv hand the text in, slot_send takes the histogram
// out, every other import is a stub the mapper never calls. It returns
// the Instantiate+Call window and the steps executed, and checks the
// histogram against the harness's own word count.
func runMapGuest(engine asvm.EngineKind, text []byte) (time.Duration, int64, error) {
	l := asvm.NewLinker()
	for _, imp := range workloads.WcMapGuest.Imports {
		name := imp.Name
		l.Define(name, func(*asvm.Instance, []int64) (int64, error) {
			return -1, fmt.Errorf("mapper called unexpected import %s", name)
		})
	}
	var hist []byte
	l.Define("slot_size", func(*asvm.Instance, []int64) (int64, error) { return int64(len(text)), nil })
	l.Define("slot_recv", func(vm *asvm.Instance, args []int64) (int64, error) {
		return int64(len(text)), vm.WriteBytes(args[0], text)
	})
	l.Define("slot_send", func(vm *asvm.Instance, args []int64) (int64, error) {
		hist = append(hist[:0], vm.Memory()[args[0]:args[0]+args[1]]...)
		return 0, nil
	})
	var inst *asvm.Instance
	d, err := timed(func() error {
		var err error
		inst, err = l.Instantiate(workloads.WcMapGuest, asvm.Config{Engine: engine})
		if err != nil {
			return err
		}
		_, err = inst.Call("run", 0, 1)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	// The histogram is 26 little-endian u64 buckets; their sum is the
	// number of word starts.
	var got uint64
	for i := 0; i+8 <= len(hist); i += 8 {
		got += binary.LittleEndian.Uint64(hist[i:])
	}
	if want := wordStarts(text); got != want {
		return 0, 0, fmt.Errorf("mapper counted %d words, text has %d", got, want)
	}
	return d, inst.Steps(), nil
}
