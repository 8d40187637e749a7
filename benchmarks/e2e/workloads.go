package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/asvm"
	"alloystack/internal/blockdev"
	"alloystack/internal/cluster"
	"alloystack/internal/core"
	"alloystack/internal/dag"
	"alloystack/internal/fatfs"
	"alloystack/internal/gateway"
	"alloystack/internal/metrics"
	"alloystack/internal/pool"
	"alloystack/internal/sched"
	"alloystack/internal/trace"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
	"alloystack/internal/xfer"
)

// observation is what one invoke shows from outside: the harness's own
// latency window, the output check, and the values the public API
// returns (RunResult in process, InvokeResponse at the front door).
type observation struct {
	latency time.Duration
	err     error // nil when the invoke succeeded and its output check passed

	memPeak  uint64
	e2e      time.Duration // RunResult.E2E
	boot     time.Duration // RunResult.ColdStart
	stages   time.Duration // sum of RunResult.Stages
	transfer time.Duration // RunResult.Clock stages

	readInput time.Duration
	queueWait time.Duration
	crossings uint64
	xfer      metrics.TransportKind
	// programSpans counts the spans the program itself recorded for a
	// traced invoke (its own span tree, not the harness's).
	programSpans int
}

// system is one booted instance of a workload's serving stack.
type system interface {
	// invoke issues one request and waits for the reply. When traced is
	// set the program's own tracing is switched on for the request;
	// parent, when non-nil, receives the harness's spans.
	invoke(parent *trace.Span, traced bool) observation
	// idle runs work the deployment does between requests, outside the
	// latency window (the warm pool's refill).
	idle()
	// counters snapshots the layer counters read from outside.
	counters() layerCounters
	// lastProgramTrace returns the Chrome trace_event JSON of the last
	// traced invoke as the program exported it (nil when none).
	lastProgramTrace() []byte
	close()
}

// layerCounters are counts the layers keep and expose publicly.
type layerCounters struct {
	gatewayFailovers, gatewayShed int64
	scanRejects                   int64
	devReads, devWrites, devBytes int64
	pool                          pool.Stats
	poolForkTimes                 []time.Duration // one per idle() that forked
	cowBreaks                     uint64
}

// workload names one benchmark workload and how to boot it.
type workload struct {
	name string
	why  string
	// modules is the as-libos module set the workload's functions load,
	// for the loader rung of the layer ladder.
	modules []string
	// setup builds everything the workload needs from nothing — image,
	// registry, visor, fleet, pool — ready for the first invoke.
	setup func(seed int64) (system, error)
}

var allWorkloads = []workload{
	{
		name: "frontdoor-noop",
		why:  "HTTP client to gateway to watchdog to a cold no-op WFD: all control plane, no payload, no guest, no pool; input-free, the seed is unused",
		setup: func(int64) (system, error) {
			return newFrontdoor()
		},
	},
	{
		name:    "chain-refpass",
		why:     "in-process 8-function chain passing 64 KiB by reference: per-function dispatch, MPK crossings, zero copies; input-free, the seed is unused",
		modules: []string{"mm"},
		setup: func(int64) (system, error) {
			return newChain(xfer.KindRefpass)
		},
	},
	{
		name:    "chain-file",
		why:     "the same chain spilling through vfs/fatfs/blockdev: 14 copies, so a refpass gain that costs the copy path shows here; input-free, the seed is unused",
		modules: []string{"mm", "fdtab", "fatfs"},
		setup: func(int64) (system, error) {
			return newChain(xfer.KindFile)
		},
	},
	{
		name:    "wc-py-warm",
		why:     "Python-tier WordCount over 256 KiB of seeded text from a warm pool: ASVM interpreter compute, pool fork, COW memory, WASI copies",
		modules: workloads.PoolModules,
		setup: func(seed int64) (system, error) {
			return newWordCount(seed)
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// baseRunOptions is the paper's default configuration with every
// injected cost stripped: at CostScale 0 core, loader, pool and
// visor.runVM skip their calibrated time.Sleep, so timed windows hold
// only the repository's own code.
func baseRunOptions() visor.RunOptions {
	opts := visor.DefaultRunOptions()
	opts.CostScale = 0
	return opts
}

func newVisor(wfs ...*dag.Workflow) (*visor.Visor, error) {
	reg := visor.NewRegistry()
	workloads.RegisterAll(reg)
	v := visor.New(reg)
	for _, wf := range wfs {
		if err := v.RegisterWorkflow(wf); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// fromResult copies the outside-visible fields of a RunResult.
func (o *observation) fromResult(res *visor.RunResult) {
	o.memPeak = res.MemPeak
	o.e2e = res.E2E
	o.boot = res.ColdStart
	for _, s := range res.Stages {
		o.stages += s
	}
	o.transfer = res.Clock.Total(metrics.StageTransfer)
	o.readInput = res.Clock.Total(metrics.StageReadInput)
	o.queueWait = res.QueueWait
	o.crossings = res.Crossings
	o.xfer = res.Transfer.Totals()
}

// ---- frontdoor-noop ---------------------------------------------------------

const noopWorkflow = "no-ops"

// frontdoor is the full front door of a one-node deployment, wired as
// cmd/asvisor wires it: a gateway in cluster mode over one watchdog with
// scheduler admission and the telemetry plane on. The health loop is not
// started: the membership view is fed once at boot, so no periodic probe
// lands inside a timed window.
type frontdoor struct {
	visor   *visor.Visor
	wd      *visor.Watchdog
	sched   *sched.Scheduler
	gw      *gateway.Gateway
	client  *http.Client
	gwURL   string
	wdURL   string
	program []byte
}

func newFrontdoor() (*frontdoor, error) {
	v, err := newVisor(workloads.NoOps())
	if err != nil {
		return nil, err
	}
	f := &frontdoor{visor: v, sched: sched.New(sched.Config{})}
	f.wd = visor.NewWatchdog(v)
	f.wd.Sched = f.sched
	f.wd.Telemetry = visor.NewTelemetry(visor.TelemetryConfig{SamplerSeed: 1})
	f.wd.Pools = pool.NewManager()
	f.wd.OptionsFor = func(string) visor.RunOptions { return baseRunOptions() }
	wdAddr, err := f.wd.Start("127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw, err = gateway.New(wdAddr)
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw.Cluster = cluster.NewRouter(cluster.Config{})
	f.gw.CheckHealth()
	gwAddr, err := f.gw.Start("127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.client = &http.Client{Transport: &http.Transport{}, Timeout: time.Minute}
	f.gwURL = "http://" + gwAddr + "/invoke/" + noopWorkflow
	f.wdURL = "http://" + wdAddr + "/invoke/" + noopWorkflow
	return f, nil
}

// post issues one POST and checks the reply the way a client would:
// status 200, a parseable InvokeResponse, no error, the right workflow.
func (f *frontdoor) post(url string) (visor.InvokeResponse, error) {
	var resp visor.InvokeResponse
	r, err := f.client.Post(url, "application/json", nil)
	if err != nil {
		return resp, err
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return resp, err
	}
	if r.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("status %d: %s", r.StatusCode, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("reply is not an InvokeResponse: %w", err)
	}
	if resp.Error != "" {
		return resp, errors.New(resp.Error)
	}
	if resp.Workflow != noopWorkflow {
		return resp, fmt.Errorf("reply names workflow %q", resp.Workflow)
	}
	return resp, nil
}

func (f *frontdoor) invoke(parent *trace.Span, traced bool) observation {
	url := f.gwURL
	if traced {
		url += "?trace=1"
	}
	sp := parent.Child("POST gateway", "gateway")
	start := time.Now()
	resp, err := f.post(url)
	o := observation{latency: time.Since(start), err: err}
	sp.End()
	if err != nil {
		return o
	}
	o.memPeak = resp.MemPeak
	o.e2e = time.Duration(resp.E2EMillis * float64(time.Millisecond))
	o.boot = time.Duration(resp.ColdStartMs * float64(time.Millisecond))
	o.queueWait = time.Duration(resp.QueueWaitMs * float64(time.Millisecond))
	if traced {
		if len(resp.Trace) == 0 {
			o.err = errors.New("traced invoke returned no trace")
			return o
		}
		f.program = resp.Trace
		o.programSpans = countChromeSpans(resp.Trace)
	}
	return o
}

// countChromeSpans counts the complete ("X") events of a Chrome
// trace_event document.
func countChromeSpans(doc []byte) int {
	var file struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if json.Unmarshal(doc, &file) != nil {
		return 0
	}
	n := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			n++
		}
	}
	return n
}

func (f *frontdoor) idle() {}

func (f *frontdoor) counters() layerCounters {
	return layerCounters{
		gatewayFailovers: f.gw.Failovers(),
		// The gateway's own shed counter is only on /metrics; its two
		// sources are both readable: shard-budget sheds at the router
		// and 429s from the one backend.
		gatewayShed: f.gw.Cluster.Stats().ShardShed + f.wd.Shed(),
		scanRejects: f.visor.ScanRejects(),
	}
}

func (f *frontdoor) lastProgramTrace() []byte { return f.program }

func (f *frontdoor) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.gw != nil {
		f.gw.Stop()
	}
	f.wd.Stop()
	f.sched.Close()
}

// ---- in-process workloads ---------------------------------------------------

// inProcess is what the workloads that call visor.RunWorkflow directly
// share: the visor, the workflow, its options, and the tracer of the
// last traced invoke.
type inProcess struct {
	visor  *visor.Visor
	wf     *dag.Workflow
	opts   visor.RunOptions
	tracer *trace.Tracer
}

// run makes one invoke and copies what the RunResult shows; the caller
// adds its output check.
func (p *inProcess) run(parent *trace.Span, traced bool) (observation, *visor.RunResult) {
	opts := p.opts
	if traced {
		p.tracer = trace.New("visor", trace.Options{})
		opts.Trace = p.tracer
	}
	sp := parent.Child("visor.RunWorkflow", "visor")
	start := time.Now()
	res, err := p.visor.RunWorkflow(p.wf, opts)
	o := observation{latency: time.Since(start), err: err}
	sp.End()
	if err != nil {
		return o, nil
	}
	o.fromResult(res)
	if traced {
		o.programSpans = len(p.tracer.Spans())
	}
	return o, res
}

func (p *inProcess) lastProgramTrace() []byte {
	if p.tracer == nil {
		return nil
	}
	doc, err := trace.ChromeJSON(p.tracer)
	if err != nil {
		return nil
	}
	return doc
}

// ---- chain-refpass / chain-file ---------------------------------------------

const (
	chainLength  = 8
	chainPayload = 64 << 10
)

// chain runs FunctionChain(8, 64 KiB, native) in process over one
// transport kind. The file kind spills through one reused empty image.
type chain struct {
	inProcess
	dev  *blockdev.Counting
	want metrics.TransportKind
}

func newChain(kind string) (*chain, error) {
	wf := workloads.FunctionChain(chainLength, chainPayload, "native")
	v, err := newVisor(wf)
	if err != nil {
		return nil, err
	}
	c := &chain{inProcess: inProcess{visor: v, wf: wf, opts: baseRunOptions()}}
	c.opts.Transfer = kind
	edges := int64(chainLength - 1)
	switch kind {
	case xfer.KindFile:
		// Every edge is one spill out and one read back.
		c.want = metrics.TransportKind{Copies: 2 * edges, Bytes: 2 * edges * chainPayload}
		c.dev = &blockdev.Counting{Inner: blockdev.NewMemDisk(16 << 20)}
		if _, err := fatfs.Format(c.dev, fatfs.MkfsOptions{}); err != nil {
			return nil, err
		}
		c.opts.DiskImage = c.dev
	case xfer.KindRefpass:
		// The head hands its buffer over once; every later hop forwards
		// the slot in place. No payload byte is ever copied.
		c.want = metrics.TransportKind{Copies: 0, Bytes: chainPayload}
	}
	return c, nil
}

func (c *chain) invoke(parent *trace.Span, traced bool) observation {
	o, res := c.run(parent, traced)
	if res != nil && (o.xfer.Copies != c.want.Copies || o.xfer.Bytes != c.want.Bytes) {
		o.err = fmt.Errorf("transfer moved %d bytes in %d copies, want %d in %d",
			o.xfer.Bytes, o.xfer.Copies, c.want.Bytes, c.want.Copies)
	}
	return o
}

func (c *chain) idle() {}

func (c *chain) counters() layerCounters {
	lc := layerCounters{scanRejects: c.visor.ScanRejects()}
	if c.dev != nil {
		var br, bw int64
		lc.devReads, lc.devWrites, br, bw = c.dev.Stats()
		lc.devBytes = br + bw
	}
	return lc
}

func (c *chain) close() {}

// ---- wc-py-warm -------------------------------------------------------------

const (
	wcInstances = 2
	wcTextSize  = 256 << 10
)

// wordCount serves WordCount(2, python) from a warm pool whose template
// owns an image built here from the seed (not the fixed-seed image
// workloads.PoolSpecFor stages).
type wordCount struct {
	inProcess
	dev  *blockdev.Counting
	pool *pool.Pool
	text []byte
	// want is the transfer table of the reference run made by hand in
	// verify(): every served invoke must move exactly the same bytes.
	want      metrics.TransportKind
	verified  bool
	cowBreaks uint64
	forkTimes []time.Duration
}

// wcPoolSpec is the template the pool boots: the modules and runtime
// workloads.PoolSpecFor would choose, over the seeded image.
func wcPoolSpec(wf *dag.Workflow, img blockdev.Device) pool.Spec {
	tier := workloads.PyTier()
	return pool.Spec{
		Workflow: wf.Name,
		Core: core.Options{
			DiskImage: img,
			Stdout:    io.Discard,
			OnDemand:  true,
			CostScale: 0,
		},
		Modules:  workloads.PoolModules,
		Runtimes: []pool.Runtime{{Image: tier.RuntimeImage, InitCost: tier.InitCost}},
	}
}

func newWordCount(seed int64) (*wordCount, error) {
	wf := workloads.WordCount(wcInstances, "python")
	v, err := newVisor(wf)
	if err != nil {
		return nil, err
	}
	w := &wordCount{
		inProcess: inProcess{visor: v, wf: wf, opts: baseRunOptions()},
		text:      workloads.GenText(wcTextSize, seed),
	}
	w.dev = &blockdev.Counting{Inner: blockdev.NewMemDisk(2*wcTextSize + 2*workloads.PyRuntimeSize + (8 << 20))}
	fs, err := fatfs.Format(w.dev, fatfs.MkfsOptions{})
	if err != nil {
		return nil, err
	}
	if err := fs.WriteFile(workloads.TextInputPath, w.text); err != nil {
		return nil, err
	}
	if err := fs.WriteFile(workloads.PyRuntimePath, workloads.GenText(workloads.PyRuntimeSize, 7)); err != nil {
		return nil, err
	}
	w.pool, err = pool.New(wcPoolSpec(wf, w.dev), pool.Config{Min: 1, Max: 4, Seed: seed})
	if err != nil {
		return nil, err
	}
	w.opts.Pool = w.pool
	w.opts.WarmStart = true
	w.opts.Stdout = io.Discard
	return w, nil
}

func (w *wordCount) invoke(parent *trace.Span, traced bool) observation {
	o, res := w.run(parent, traced)
	switch {
	case res == nil:
	case !res.WarmStart:
		o.err = errors.New("warm pool missed: invoke fell back to a cold boot")
	case w.verified && o.xfer != w.want:
		o.err = fmt.Errorf("transfer table %+v differs from the verified reference run %+v", o.xfer, w.want)
	}
	return o
}

// idle restocks the pool the way its background loop would, timed so
// the fork cost is visible as a layer metric.
func (w *wordCount) idle() {
	start := time.Now()
	forked := w.pool.Maintain(start)
	if forked > 0 {
		w.forkTimes = append(w.forkTimes, time.Since(start)/time.Duration(forked))
	}
}

func (w *wordCount) counters() layerCounters {
	lc := layerCounters{
		scanRejects:   w.visor.ScanRejects(),
		pool:          w.pool.Stats(),
		poolForkTimes: w.forkTimes,
		cowBreaks:     w.cowBreaks,
	}
	var br, bw int64
	lc.devReads, lc.devWrites, br, bw = w.dev.Stats()
	lc.devBytes = br + bw
	return lc
}

func (w *wordCount) close() { w.pool.Stop() }

// wordStarts counts whitespace-to-word transitions the way the guest
// mapper does: space, newline, tab and carriage return separate words,
// and a chunk starts as if preceded by a space.
func wordStarts(chunk []byte) uint64 {
	var n uint64
	prevSpace := true
	for _, c := range chunk {
		space := c == ' ' || c == '\n' || c == '\t' || c == '\r'
		if !space && prevSpace {
			n++
		}
		prevSpace = space
	}
	return n
}

// wcChunks cuts text the way the guest splitter does: n equal byte
// ranges, the last taking the remainder.
func wcChunks(text []byte, n int) [][]byte {
	size := len(text) / n
	out := make([][]byte, n)
	for i := range out {
		end := (i + 1) * size
		if i == n-1 {
			end = len(text)
		}
		out[i] = text[i*size : end]
	}
	return out
}

// verify checks the program's answer on this seed's input. The Python
// tier prints nothing (the merge guest returns its total to the visor,
// which drops it), so the check runs the workflow's guests by hand on a
// clone checked out of the pool — the same bytecode, engine, transport
// and filesystem an invoke uses — and compares the merge guest's return
// value with the word count the harness computes from the seeded text.
// The run's transfer table then becomes the reference every served
// invoke is held to, and the clone's COW breaks the mem layer metric.
func (w *wordCount) verify() error {
	clone, ok := w.pool.Get()
	if !ok {
		return errors.New("verify: pool has no warm clone")
	}
	defer w.pool.Recycle(clone)
	stats := metrics.NewTransportStats()
	bufs := xfer.NewBufPool()
	tier := workloads.PyTier()
	stages, err := w.wf.Stages()
	if err != nil {
		return err
	}
	var total int64
	for si, stage := range stages {
		for _, spec := range stage {
			for i := 0; i < spec.InstancesOf(); i++ {
				fctx := visor.FuncContext{
					Workflow: w.wf.Name, Function: spec.Name, Instance: i,
					Instances: spec.InstancesOf(), Stage: si, Params: spec.Params,
				}
				prog, args, err := workloads.GuestProgram(spec.Name, fctx)
				if err != nil {
					return err
				}
				in, out := workloads.GuestEdges(spec.Name, fctx)
				err = clone.Run(spec.Name, func(env *asstd.Env) error {
					tr, err := xfer.New(xfer.KindRefpass, xfer.Config{Env: env, Pool: bufs, Stats: stats})
					if err != nil {
						return err
					}
					env.SetTransport(tr)
					l := asvm.NewLinker()
					asstd.BindWASISlots(l, env, in, out)
					inst, err := l.Instantiate(prog, asvm.Config{Engine: tier.Engine, OverheadFactor: tier.OverheadFactor})
					if err != nil {
						return err
					}
					total, err = inst.Call("run", args...)
					return err
				})
				if err != nil {
					return fmt.Errorf("verify: %s[%d]: %w", spec.Name, i, err)
				}
			}
		}
	}
	var want uint64
	for _, chunk := range wcChunks(w.text, wcInstances) {
		want += wordStarts(chunk)
	}
	if uint64(total) != want {
		return fmt.Errorf("verify: program counted %d words, the seeded text has %d", total, want)
	}
	w.want = stats.Totals()
	w.verified = true
	w.cowBreaks = clone.Space.CowBreaks()
	return nil
}
