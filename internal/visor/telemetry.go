package visor

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alloystack/internal/metrics"
	"alloystack/internal/trace"
)

// Telemetry is the watchdog's always-on observability plane. One
// instance aggregates, per workflow:
//
//   - a constant-memory latency histogram with trace-ID exemplars,
//     rendered as real Prometheus histogram exposition on /metrics;
//   - tail-sampled tracing: every run records spans into its own
//     tracer, and the full Chrome-trace export is retained
//     (GET /traces/{id}) only for runs that failed, landed beyond the
//     configured latency quantile, or won the seeded base-rate draw;
//   - an SLO (latency objective + error budget, multi-window burn
//     rate) whose breach triggers an anomaly capture — CPU + heap
//     profiles and the triggering run's flight dump snapshotted into
//     an artifacts directory — and flips /healthz to degraded.
type Telemetry struct {
	cfg     TelemetryConfig
	clock   func() time.Time
	sampler *trace.Sampler

	mu       sync.Mutex
	hists    map[string]*metrics.Histogram
	slos     map[string]*metrics.SLO
	breached map[string]bool // workflows inside a breach episode

	traces *traceStore

	retained  atomic.Int64
	dropped   atomic.Int64
	captures  atomic.Int64
	capturing atomic.Bool
	captureWG sync.WaitGroup
	lastCap   atomic.Value // string: most recent capture directory
}

// TelemetryConfig parameterises the plane. The zero value is usable:
// seeded sampler at the default rate, p99 tail retention, 32 retained
// traces, no SLO watching (Objective 0) and no capture directory.
type TelemetryConfig struct {
	// SamplerSeed/SampleRate drive the deterministic base-rate trace
	// retention draw. A zero SampleRate selects the default 0.01;
	// trace.RateOff (any negative value) disables the base-rate draw so
	// only failed and tail runs are retained.
	SamplerSeed int64
	SampleRate  float64
	// TailQuantile is the histogram quantile beyond which a run's trace
	// is always retained (default 0.99). Runs measured before the
	// workflow has MinTailCount observations never match the tail rule —
	// the estimate is not meaningful yet.
	TailQuantile float64 //asvet:allow unreachable -- test seam: the tail-retention test lowers it to reach the rule in a few runs
	// RetainedTraces bounds the Chrome-export store (default 32; FIFO
	// eviction).
	RetainedTraces int //asvet:allow unreachable -- test seam: the eviction test shrinks the store
	// SLO, when Objective > 0, enables per-workflow SLO tracking with
	// this shared configuration.
	SLO metrics.SLOConfig
	// CaptureDir, when set, receives one subdirectory per anomaly
	// capture: cpu.pprof, heap.pprof, flight.txt and trace.json.
	CaptureDir string
	// CaptureCPUProfile bounds the CPU profile window of a capture
	// (default 250ms).
	CaptureCPUProfile time.Duration
	// Clock supplies time for SLO burn windows (default time.Now).
	Clock func() time.Time
}

// minTailCount is how many observations a workflow's histogram needs
// before the tail-quantile retention rule engages.
const minTailCount = 16

func (c TelemetryConfig) withDefaults() TelemetryConfig {
	if c.SampleRate == 0 {
		c.SampleRate = 0.01
	}
	if c.TailQuantile <= 0 || c.TailQuantile >= 1 {
		c.TailQuantile = 0.99
	}
	if c.RetainedTraces <= 0 {
		c.RetainedTraces = 32
	}
	if c.CaptureCPUProfile <= 0 {
		c.CaptureCPUProfile = 250 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// NewTelemetry builds the plane.
func NewTelemetry(cfg TelemetryConfig) *Telemetry {
	cfg = cfg.withDefaults()
	return &Telemetry{
		cfg:      cfg,
		clock:    cfg.Clock,
		sampler:  trace.NewSampler(trace.SamplerConfig{Seed: cfg.SamplerSeed, Rate: cfg.SampleRate}),
		hists:    make(map[string]*metrics.Histogram),
		slos:     make(map[string]*metrics.SLO),
		breached: make(map[string]bool),
		traces:   newTraceStore(cfg.RetainedTraces),
	}
}

// StartRun hands out the always-on tracer for one invocation. It
// records the run whether or not ObserveRun later retains its export,
// so a failed run can always print its flight dump.
func (t *Telemetry) StartRun(workflow string) *trace.Tracer {
	return trace.New("watchdog", trace.Options{})
}

// RunTelemetry reports what ObserveRun did with one finished run.
type RunTelemetry struct {
	Retained bool
	Reason   string
}

// hist returns the workflow's histogram, creating it on first use.
func (t *Telemetry) hist(workflow string) *metrics.Histogram {
	h, ok := t.hists[workflow]
	if !ok {
		h = metrics.NewHistogram()
		t.hists[workflow] = h
	}
	return h
}

// slo returns the workflow's SLO, creating it on first use; nil when
// SLO watching is disabled.
func (t *Telemetry) slo(workflow string) *metrics.SLO {
	if t.cfg.SLO.Objective <= 0 {
		return nil
	}
	s, ok := t.slos[workflow]
	if !ok {
		s = metrics.NewSLO(t.cfg.SLO, t.clock)
		t.slos[workflow] = s
	}
	return s
}

// ObserveRun folds one finished run into the plane: the tail-sampling
// decision (made against the histogram's state before this run, so the
// threshold is what a scraper saw), the histogram observation — with
// the trace ID as a bucket exemplar only when the export actually
// landed in the trace store, so a freshly scraped exemplar resolves
// via /traces/{id} (later FIFO eviction can still orphan an old
// exemplar; scrapers must tolerate a 404 there) — and the SLO, whose
// breach transition triggers an anomaly capture.
func (t *Telemetry) ObserveRun(workflow string, tracer *trace.Tracer, dur time.Duration, runErr error) RunTelemetry {
	t.mu.Lock()
	h := t.hist(workflow)
	var tail time.Duration
	if h.Count() >= minTailCount {
		tail = h.Quantile(t.cfg.TailQuantile)
	}
	s := t.slo(workflow)
	t.mu.Unlock()

	dec := t.sampler.Decide(tracer.TraceID(), dur, tail, runErr != nil)
	stored := false
	if tracer.Enabled() {
		if dec.Keep {
			if data, err := trace.ChromeJSON(tracer); err == nil {
				stored = t.traces.put(tracer.TraceID(), data)
			}
		}
		if stored {
			t.retained.Add(1)
		} else {
			t.dropped.Add(1)
		}
	}

	// The exemplar is installed only once the export is in the store: a
	// keep decision whose export failed (disabled tracer, ChromeJSON
	// error, empty trace) must not advertise a trace ID that
	// /traces/{id} would 404.
	exemplar := ""
	if stored {
		exemplar = tracer.TraceID()
	}
	h.ObserveExemplar(dur, exemplar)

	if s != nil {
		s.Observe(dur, runErr != nil)
		st := s.Status()
		t.mu.Lock()
		newBreach := st.Breached && !t.breached[workflow]
		t.breached[workflow] = st.Breached
		t.mu.Unlock()
		if newBreach {
			t.capture(workflow, tracer)
		}
	}
	return RunTelemetry{Retained: dec.Keep, Reason: dec.Reason}
}

// capture snapshots the process on an SLO breach transition: CPU and
// heap profiles plus the triggering run's flight dump and trace,
// written to a per-capture directory. At most one capture runs at a
// time; the profile window happens on a background goroutine so the
// breaching request is not held hostage.
func (t *Telemetry) capture(workflow string, tracer *trace.Tracer) {
	if t.cfg.CaptureDir == "" || !t.capturing.CompareAndSwap(false, true) {
		return
	}
	dir := filepath.Join(t.cfg.CaptureDir,
		fmt.Sprintf("%s-%d", sanitizeCaptureName(workflow), t.clock().UnixNano()))
	t.captureWG.Add(1)
	go func() {
		defer t.captureWG.Done()
		defer t.capturing.Store(false)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return
		}
		if f, err := os.Create(filepath.Join(dir, "cpu.pprof")); err == nil {
			if pprof.StartCPUProfile(f) == nil {
				time.Sleep(t.cfg.CaptureCPUProfile)
				pprof.StopCPUProfile()
			}
			f.Close()
		}
		if f, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
			pprof.Lookup("heap").WriteTo(f, 0)
			f.Close()
		}
		if f, err := os.Create(filepath.Join(dir, "flight.txt")); err == nil {
			tracer.FlightDump(f, fmt.Sprintf("SLO breach on workflow %q", workflow))
			f.Close()
		}
		if data, err := trace.ChromeJSON(tracer); err == nil && tracer.Enabled() {
			os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
		}
		t.captures.Add(1)
		t.lastCap.Store(dir)
	}()
}

// sanitizeCaptureName keeps capture directory names filesystem-safe.
func sanitizeCaptureName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}

// WaitCaptures blocks until in-flight anomaly captures finish (tests
// and shutdown paths).
func (t *Telemetry) WaitCaptures() {
	t.captureWG.Wait()
}

// Captures reports completed anomaly captures and the most recent
// capture directory.
func (t *Telemetry) Captures() (int64, string) {
	dir, _ := t.lastCap.Load().(string)
	return t.captures.Load(), dir
}

// Retained reports (retained, dropped) trace-export outcomes so far:
// retained counts exports that actually landed in the store, dropped
// everything else (sampler drops and failed exports alike).
func (t *Telemetry) Retained() (int64, int64) {
	return t.retained.Load(), t.dropped.Load()
}

// TraceJSON returns a retained run's Chrome trace export by trace ID.
func (t *Telemetry) TraceJSON(id string) ([]byte, bool) {
	return t.traces.get(id)
}

// TraceIDs lists the retained trace IDs, newest last.
func (t *Telemetry) TraceIDs() []string {
	return t.traces.ids()
}

// Degraded reports whether any workflow is inside an SLO breach
// episode, with the sorted offender list. Burn rates decay as windows
// roll forward, so the state is re-evaluated from the live SLOs on
// every read rather than latched.
func (t *Telemetry) Degraded() (bool, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var bad []string
	for wf, s := range t.slos {
		st := s.Status()
		t.breached[wf] = st.Breached
		if st.Breached {
			bad = append(bad, wf)
		}
	}
	sort.Strings(bad)
	return len(bad) > 0, bad
}

// Latency merges the per-workflow histograms, in workflow order, into
// one across all workflows: the watchdog's invoke-latency family is
// rendered from it at scrape time, exemplars included.
func (t *Telemetry) Latency() *metrics.Histogram {
	all := metrics.NewHistogram()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, wf := range t.workflows() {
		all.Merge(t.hists[wf])
	}
	return all
}

// workflows lists the workflows with a histogram, sorted. Caller holds
// t.mu.
func (t *Telemetry) workflows() []string {
	names := make([]string, 0, len(t.hists))
	for wf := range t.hists {
		names = append(names, wf)
	}
	sort.Strings(names)
	return names
}

// Quantile reports a workflow's current histogram quantile (0 when the
// workflow has no observations).
func (t *Telemetry) Quantile(workflow string, q float64) time.Duration {
	t.mu.Lock()
	h := t.hists[workflow]
	t.mu.Unlock()
	return h.Quantile(q)
}

// WriteMetrics renders the plane's exposition: per-workflow latency
// histograms with exemplars, SLO burn gauges, and the trace-retention
// counters. Called from the watchdog's /metrics handler.
func (t *Telemetry) WriteMetrics(pw *metrics.PromWriter) {
	t.mu.Lock()
	names := t.workflows()
	series := make([]metrics.LabeledHistogram, 0, len(names))
	for _, wf := range names {
		series = append(series, metrics.LabeledHistogram{
			Labels:   []string{"workflow", wf},
			Snapshot: t.hists[wf].Snapshot(),
		})
	}
	sloNames := make([]string, 0, len(t.slos))
	for wf := range t.slos {
		sloNames = append(sloNames, wf)
	}
	sort.Strings(sloNames)
	statuses := make(map[string]metrics.SLOStatus, len(sloNames))
	for _, wf := range sloNames {
		statuses[wf] = t.slos[wf].Status()
	}
	t.mu.Unlock()

	if len(series) > 0 {
		pw.HistogramFamily("alloystack_workflow_e2e_seconds",
			"End-to-end invocation latency per workflow.", series)
	}
	if len(sloNames) > 0 {
		pw.Header("alloystack_slo_burn_rate", "gauge",
			"Error-budget burn rate per workflow and window (1 = sustainable pace).")
		for _, wf := range sloNames {
			st := statuses[wf]
			pw.Value("alloystack_slo_burn_rate", st.ShortBurn, "workflow", wf, "window", "short")
			pw.Value("alloystack_slo_burn_rate", st.LongBurn, "workflow", wf, "window", "long")
		}
		pw.Header("alloystack_slo_breached", "gauge",
			"Whether the workflow's SLO is inside a breach episode (both windows burning).")
		for _, wf := range sloNames {
			v := 0.0
			if statuses[wf].Breached {
				v = 1.0
			}
			pw.Value("alloystack_slo_breached", v, "workflow", wf)
		}
	}
	retained, dropped := t.Retained()
	pw.Header("alloystack_traces_retained_total", "counter",
		"Run traces retained by the tail sampler (failed, tail or base-rate).")
	pw.Value("alloystack_traces_retained_total", float64(retained))
	pw.Header("alloystack_traces_dropped_total", "counter",
		"Run traces recorded but not retained.")
	pw.Value("alloystack_traces_dropped_total", float64(dropped))
	captures, _ := t.Captures()
	pw.Header("alloystack_anomaly_captures_total", "counter",
		"Anomaly captures written on SLO breach (profiles + flight recorder).")
	pw.Value("alloystack_anomaly_captures_total", float64(captures))
}

// traceStore is the bounded retained-trace map: trace ID to Chrome
// JSON, FIFO-evicted beyond cap.
type traceStore struct {
	mu    sync.Mutex
	cap   int
	order []string
	data  map[string][]byte
}

func newTraceStore(cap int) *traceStore {
	return &traceStore{cap: cap, data: make(map[string][]byte)}
}

// put stores one export, reporting whether it was actually retained so
// the caller can gate the histogram exemplar on resolvability.
func (ts *traceStore) put(id string, data []byte) bool {
	if id == "" || len(data) == 0 {
		return false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.data[id]; !ok {
		ts.order = append(ts.order, id)
		for len(ts.order) > ts.cap {
			delete(ts.data, ts.order[0])
			ts.order = ts.order[1:]
		}
	}
	ts.data[id] = data
	return true
}

func (ts *traceStore) get(id string) ([]byte, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	d, ok := ts.data[id]
	return d, ok
}

func (ts *traceStore) ids() []string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]string, len(ts.order))
	copy(out, ts.order)
	return out
}
