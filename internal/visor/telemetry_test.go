package visor

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alloystack/internal/metrics"
)

// telClock is a settable clock for SLO-driven telemetry tests.
type telClock struct{ now time.Time }

func (c *telClock) Now() time.Time          { return c.now }
func (c *telClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func newTelClock() *telClock { return &telClock{now: time.Unix(1_700_000_000, 0)} }

// TestTelemetryZeroConfig: the plane NewWatchdog builds (the zero
// config) starts empty — no traces, captures or degraded workflows —
// and still renders the retention and capture counters.
func TestTelemetryZeroConfig(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{})
	if tr := tel.StartRun("wf"); !tr.Enabled() {
		t.Fatal("plane handed out a disabled tracer")
	}
	if bad, wfs := tel.Degraded(); bad || wfs != nil {
		t.Fatalf("fresh plane degraded: %v %v", bad, wfs)
	}
	if _, ok := tel.TraceJSON("x"); ok {
		t.Fatal("fresh plane resolved a trace")
	}
	if ids := tel.TraceIDs(); len(ids) != 0 {
		t.Fatalf("fresh plane listed traces: %v", ids)
	}
	if q := tel.Quantile("wf", 0.5); q != 0 {
		t.Fatalf("fresh plane quantile = %v", q)
	}
	if n, dir := tel.Captures(); n != 0 || dir != "" {
		t.Fatalf("fresh plane captures = %d %q", n, dir)
	}
	if r, d := tel.Retained(); r != 0 || d != 0 {
		t.Fatalf("fresh plane retention = %d/%d", r, d)
	}
	if n := tel.Latency().Count(); n != 0 {
		t.Fatalf("fresh plane latency count = %d", n)
	}
	tel.WaitCaptures()
	var sb strings.Builder
	tel.WriteMetrics(metrics.NewPromWriter(&sb))
	out := sb.String()
	if strings.Contains(out, "alloystack_workflow_e2e_seconds") || !strings.Contains(out, "alloystack_traces_retained_total 0") {
		t.Fatalf("fresh plane metrics:\n%s", out)
	}
}

// TestTelemetryRetentionRules checks the sampling contract: failed runs
// are always retained and resolvable, ordinary runs below the base rate
// are dropped, and exemplars are installed exactly for retained traces
// so everything a scraper sees on /metrics resolves via /traces/{id}.
func TestTelemetryRetentionRules(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{SamplerSeed: 1, SampleRate: -1}) // base rate off

	okTracer := tel.StartRun("wf")
	span := okTracer.Start("step", "test")
	span.End()
	rt := tel.ObserveRun("wf", okTracer, 10*time.Millisecond, nil)
	if rt.Retained {
		t.Fatalf("ordinary run retained with base rate off: %+v", rt)
	}
	if _, ok := tel.TraceJSON(okTracer.TraceID()); ok {
		t.Fatal("dropped run's trace is resolvable")
	}

	failTracer := tel.StartRun("wf")
	span = failTracer.Start("step", "test")
	span.End()
	rt = tel.ObserveRun("wf", failTracer, 10*time.Millisecond, errors.New("boom"))
	if !rt.Retained || rt.Reason != "failed" {
		t.Fatalf("failed run = %+v, want retained/failed", rt)
	}
	data, ok := tel.TraceJSON(failTracer.TraceID())
	if !ok || len(data) == 0 {
		t.Fatal("failed run's trace not resolvable")
	}

	retained, dropped := tel.Retained()
	if retained != 1 || dropped != 1 {
		t.Fatalf("retention counters = %d/%d, want 1/1", retained, dropped)
	}

	// The only exemplar on the OpenMetrics exposition is the retained
	// run's ID: the dropped run observed with an empty exemplar, which
	// never overwrites.
	var sb strings.Builder
	pw := metrics.NewOpenMetricsWriter(&sb)
	tel.WriteMetrics(pw)
	pw.Finish()
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if !strings.Contains(body, `trace_id="`+failTracer.TraceID()+`"`) {
		t.Fatalf("exposition missing retained exemplar:\n%s", body)
	}
	if strings.Contains(body, okTracer.TraceID()) {
		t.Fatalf("exposition leaks a dropped run's trace ID:\n%s", body)
	}
	if !strings.Contains(body, `alloystack_workflow_e2e_seconds_count{workflow="wf"} 2`) {
		t.Fatalf("exposition missing workflow histogram count:\n%s", body)
	}
	if !strings.Contains(body, "alloystack_traces_retained_total 1") ||
		!strings.Contains(body, "alloystack_traces_dropped_total 1") {
		t.Fatalf("exposition missing retention counters:\n%s", body)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("OpenMetrics exposition missing # EOF terminator:\n%s", body)
	}

	// The default 0.0.4 exposition must stay exemplar-free: its parser
	// rejects exemplar suffixes, so a single one would fail every stock
	// Prometheus scrape.
	var plain strings.Builder
	ppw := metrics.NewPromWriter(&plain)
	tel.WriteMetrics(ppw)
	ppw.Finish()
	if strings.Contains(plain.String(), "trace_id=") {
		t.Fatalf("0.0.4 exposition carries an exemplar suffix:\n%s", plain.String())
	}
}

// TestTelemetryTailRuleWarmup checks the tail-quantile retention rule
// engages only after minTailCount observations.
func TestTelemetryTailRuleWarmup(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{SamplerSeed: 1, SampleRate: -1, TailQuantile: 0.5})

	// Before warm-up, even a wildly slow run is not "tail": there is no
	// meaningful threshold yet.
	tr := tel.StartRun("wf")
	if rt := tel.ObserveRun("wf", tr, time.Hour, nil); rt.Retained {
		t.Fatalf("tail rule engaged before warm-up: %+v", rt)
	}
	for i := 0; i < minTailCount; i++ {
		tel.ObserveRun("wf", tel.StartRun("wf"), time.Millisecond, nil)
	}
	// Now a run far beyond the p50 estimate is retained as tail.
	tr = tel.StartRun("wf")
	rt := tel.ObserveRun("wf", tr, time.Hour, nil)
	if !rt.Retained || rt.Reason != "tail" {
		t.Fatalf("slow run after warm-up = %+v, want retained/tail", rt)
	}
}

// TestTelemetryTraceStoreBounded drives FIFO eviction through the
// public surface: with RetainedTraces=2, the third retained trace
// evicts the first.
func TestTelemetryTraceStoreBounded(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{SamplerSeed: 1, SampleRate: -1, RetainedTraces: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		tr := tel.StartRun("wf")
		tr.Start("step", "test").End()
		ids = append(ids, tr.TraceID())
		if rt := tel.ObserveRun("wf", tr, time.Millisecond, errors.New("keep me")); !rt.Retained {
			t.Fatalf("run %d not retained", i)
		}
	}
	if _, ok := tel.TraceJSON(ids[0]); ok {
		t.Fatal("oldest trace not evicted at cap 2")
	}
	for _, id := range ids[1:] {
		if _, ok := tel.TraceJSON(id); !ok {
			t.Fatalf("trace %s evicted too early", id)
		}
	}
	got := tel.TraceIDs()
	if len(got) != 2 || got[0] != ids[1] || got[1] != ids[2] {
		t.Fatalf("TraceIDs = %v, want %v", got, ids[1:])
	}
}

// TestTelemetryCaptureOnBreach drives the full anomaly pipeline: an SLO
// breach transition kicks off one capture — CPU + heap profiles, the
// flight recorder dump and the Chrome trace — and flips Degraded().
// A second bad run inside the same breach episode must not re-capture.
func TestTelemetryCaptureOnBreach(t *testing.T) {
	dir := t.TempDir()
	clk := newTelClock()
	tel := NewTelemetry(TelemetryConfig{
		SamplerSeed:       1,
		SampleRate:        -1,
		SLO:               metrics.SLOConfig{Objective: time.Microsecond},
		CaptureDir:        dir,
		CaptureCPUProfile: 20 * time.Millisecond,
		Clock:             clk.Now,
	})

	tr := tel.StartRun("etl-job")
	tr.Start("step", "test").End()
	tel.ObserveRun("etl-job", tr, time.Second, nil) // blows the 1µs objective
	tel.WaitCaptures()

	n, capDir := tel.Captures()
	if n != 1 {
		t.Fatalf("captures = %d, want 1", n)
	}
	if !strings.HasPrefix(filepath.Base(capDir), "etl-job-") {
		t.Fatalf("capture dir = %q, want etl-job-<ts>", capDir)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof", "flight.txt", "trace.json"} {
		fi, err := os.Stat(filepath.Join(capDir, name))
		if err != nil {
			t.Fatalf("capture artifact %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("capture artifact %s is empty", name)
		}
	}
	flight, err := os.ReadFile(filepath.Join(capDir, "flight.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(flight), "etl-job") {
		t.Fatalf("flight dump does not name the workflow:\n%s", flight)
	}

	if bad, wfs := tel.Degraded(); !bad || len(wfs) != 1 || wfs[0] != "etl-job" {
		t.Fatalf("degraded = %v %v, want true [etl-job]", bad, wfs)
	}

	// Still inside the breach episode: no second capture.
	tel.ObserveRun("etl-job", tel.StartRun("etl-job"), time.Second, nil)
	tel.WaitCaptures()
	if n, _ := tel.Captures(); n != 1 {
		t.Fatalf("re-captured inside a breach episode: %d", n)
	}

	// Exposition reflects the breach.
	var sb strings.Builder
	tel.WriteMetrics(metrics.NewPromWriter(&sb))
	body := sb.String()
	if !strings.Contains(body, `alloystack_slo_breached{workflow="etl-job"} 1`) {
		t.Fatalf("exposition missing breach gauge:\n%s", body)
	}
	if !strings.Contains(body, "alloystack_anomaly_captures_total 1") {
		t.Fatalf("exposition missing capture counter:\n%s", body)
	}

	// Windows roll past the burst: the episode ends, a new breach
	// captures again.
	clk.Advance(time.Hour)
	if bad, _ := tel.Degraded(); bad {
		t.Fatal("still degraded after the windows rolled over")
	}
	tel.ObserveRun("etl-job", tel.StartRun("etl-job"), time.Second, nil)
	tel.WaitCaptures()
	if n, _ := tel.Captures(); n != 2 {
		t.Fatalf("new breach episode did not capture: %d", n)
	}
}

// TestTelemetryFingerprintStable is the determinism contract: sampling
// is retention-only, so two identical seeded runs under the always-on
// plane produce byte-identical trace fingerprints.
func TestTelemetryFingerprintStable(t *testing.T) {
	run := func() string {
		v := New(testRegistry(t))
		tel := NewTelemetry(TelemetryConfig{SamplerSeed: 7})
		tr := tel.StartRun("pipeline")
		_, err := v.RunWorkflow(pipelineWorkflow(2), testOpts(func(o *RunOptions) {
			o.Trace = tr
		}))
		if err != nil {
			t.Fatal(err)
		}
		tel.ObserveRun("pipeline", tr, 10*time.Millisecond, nil)
		return tr.Fingerprint()
	}
	a, b := run(), run()
	if a == "" || a != b {
		t.Fatalf("fingerprints diverged under the telemetry plane: %q vs %q", a, b)
	}
}

// TestTelemetrySanitizeCaptureName keeps hostile workflow names inside
// the capture directory.
func TestTelemetrySanitizeCaptureName(t *testing.T) {
	for in, want := range map[string]string{
		"etl-job":      "etl-job",
		"../../escape": "______escape",
		"a b/c\\d":     "a_b_c_d",
		"snake_case_9": "snake_case_9",
	} {
		if got := sanitizeCaptureName(in); got != want {
			t.Fatalf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestTelemetryConcurrentObserve hammers ObserveRun from many
// goroutines (the -race run is the real assertion).
func TestTelemetryConcurrentObserve(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{SamplerSeed: 1, SampleRate: 0.5})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				wf := fmt.Sprintf("wf-%d", g%3)
				tr := tel.StartRun(wf)
				tr.Start("step", "test").End()
				tel.ObserveRun(wf, tr, time.Duration(i)*time.Millisecond, nil)
				if i%10 == 0 {
					var sb strings.Builder
					tel.WriteMetrics(metrics.NewPromWriter(&sb))
					tel.TraceIDs()
					tel.Degraded()
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	retained, dropped := tel.Retained()
	if retained+dropped != 8*50 {
		t.Fatalf("decisions = %d, want 400", retained+dropped)
	}
}

// TestWatchdogTelemetryEndpoints drives the HTTP surface of the
// always-on plane: an untraced invoke surfaces the flight tracer's ID,
// /traces/{id} resolves the retained export, /metrics exposes the
// per-workflow histogram with the exemplar and build info, and the
// pprof handlers answer.
func TestWatchdogTelemetryEndpoints(t *testing.T) {
	v := New(testRegistry(t))
	if err := v.RegisterWorkflow(pipelineWorkflow(2)); err != nil {
		t.Fatal(err)
	}
	wd := NewWatchdog(v)
	wd.OptionsFor = func(string) RunOptions { return testOpts(nil) }
	wd.Telemetry = NewTelemetry(TelemetryConfig{SamplerSeed: 1, SampleRate: 1}) // retain everything
	addr, err := wd.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()

	resp, err := http.Post("http://"+addr+"/invoke/pipeline", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ir InvokeResponse
	err = json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ir.Error != "" {
		t.Fatalf("invoke failed: %s", ir.Error)
	}
	if ir.TraceID == "" {
		t.Fatal("untraced invoke carried no always-on trace ID")
	}
	if len(ir.Trace) != 0 {
		t.Fatal("untraced invoke returned an inline trace export")
	}

	// The retained export resolves by ID and is Chrome trace JSON.
	body := httpGetBody(t, "http://"+addr+"/traces/"+ir.TraceID)
	var doc chromeDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("retained trace is not Chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("retained trace has no events")
	}
	// The bare /traces/ listing includes it.
	var ids []string
	if err := json.Unmarshal([]byte(httpGetBody(t, "http://"+addr+"/traces/")), &ids); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range ids {
		found = found || id == ir.TraceID
	}
	if !found {
		t.Fatalf("trace listing %v missing %s", ids, ir.TraceID)
	}
	// Unknown IDs 404.
	if r404, err := http.Get("http://" + addr + "/traces/nope"); err != nil {
		t.Fatal(err)
	} else {
		r404.Body.Close()
		if r404.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown trace status = %d", r404.StatusCode)
		}
	}

	// A plain scrape gets the 0.0.4 text format: full histograms, no
	// exemplar suffixes (they are illegal in that dialect).
	mb := httpGetBody(t, "http://"+addr+"/metrics")
	for _, want := range []string{
		`alloystack_workflow_e2e_seconds_bucket{workflow="pipeline",le="`,
		"alloystack_build_info{",
		"alloystack_traces_retained_total 1",
		"alloystack_watchdog_invoke_latency_seconds_count 1",
	} {
		if !strings.Contains(mb, want) {
			t.Fatalf("metrics missing %q:\n%s", want, mb)
		}
	}
	if strings.Contains(mb, "trace_id=") {
		t.Fatalf("0.0.4 scrape carries an exemplar suffix:\n%s", mb)
	}

	// An OpenMetrics scrape (Accept-negotiated) carries the exemplar
	// pointing at the retained trace, and terminates with # EOF.
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	omResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	omBytes, err := io.ReadAll(omResp.Body)
	omResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := omResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("OpenMetrics scrape Content-Type = %q", ct)
	}
	om := string(omBytes)
	if !strings.Contains(om, `trace_id="`+ir.TraceID+`"`) {
		t.Fatalf("OpenMetrics scrape missing exemplar for %s:\n%s", ir.TraceID, om)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatalf("OpenMetrics scrape missing # EOF terminator:\n%s", om)
	}

	// The pprof surface answers.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		r, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, r.StatusCode)
		}
	}
}

// TestWatchdogDegradedHealth checks that an SLO breach flips /healthz
// to the degraded body (still 200: the node serves while it burns).
func TestWatchdogDegradedHealth(t *testing.T) {
	v := New(testRegistry(t))
	if err := v.RegisterWorkflow(pipelineWorkflow(2)); err != nil {
		t.Fatal(err)
	}
	wd := NewWatchdog(v)
	wd.OptionsFor = func(string) RunOptions { return testOpts(nil) }
	wd.Telemetry = NewTelemetry(TelemetryConfig{
		SamplerSeed: 1,
		SLO:         metrics.SLOConfig{Objective: time.Nanosecond}, // every run breaches
	})
	addr, err := wd.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()

	if body := httpGetBody(t, "http://"+addr+"/healthz"); !strings.HasPrefix(body, "ok") {
		t.Fatalf("pre-invoke health = %q", body)
	}
	resp, err := http.Post("http://"+addr+"/invoke/pipeline", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	body := httpGetBody(t, "http://"+addr+"/healthz")
	if !strings.HasPrefix(body, "degraded workflows=pipeline") {
		t.Fatalf("post-breach health = %q", body)
	}
}

// TestWatchdogLatencyIsTheWorkflowMerge: /metrics renders
// alloystack_watchdog_invoke_latency_seconds from the plane's
// per-workflow histograms, so its count and sum are theirs combined, and
// its exemplars follow the plane's rule — every advertised trace ID
// resolves on /traces/{id}. With the base-rate draw off, only the failed
// run is retained, so its ID is the only exemplar.
func TestWatchdogLatencyIsTheWorkflowMerge(t *testing.T) {
	v := New(testRegistry(t))
	if err := v.RegisterWorkflow(pipelineWorkflow(2)); err != nil {
		t.Fatal(err)
	}
	wd := NewWatchdog(v)
	wd.OptionsFor = func(string) RunOptions { return testOpts(nil) }
	wd.Telemetry = NewTelemetry(TelemetryConfig{SamplerSeed: 1, SampleRate: -1})
	addr, err := wd.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()

	var failedID string
	for _, wf := range []string{"pipeline", "pipeline", "no-such-workflow"} {
		resp, err := http.Post("http://"+addr+"/invoke/"+wf, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var ir InvokeResponse
		err = json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ir.Error != "" {
			failedID = ir.TraceID
		}
	}
	if failedID == "" {
		t.Fatal("the unknown workflow's invoke did not fail with a trace ID")
	}

	samples, err := metrics.ParseProm(strings.NewReader(httpGetBody(t, "http://"+addr+"/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	var wfCount, wfSum, count, sum float64
	for _, s := range samples {
		switch s.Name {
		case "alloystack_workflow_e2e_seconds_count":
			wfCount += s.Value
		case "alloystack_workflow_e2e_seconds_sum":
			wfSum += s.Value
		case "alloystack_watchdog_invoke_latency_seconds_count":
			count = s.Value
		case "alloystack_watchdog_invoke_latency_seconds_sum":
			sum = s.Value
		}
	}
	if count != 3 || wfCount != 3 || math.Abs(sum-wfSum) > 1e-9 {
		t.Fatalf("merged count/sum = %v/%v, per-workflow %v/%v", count, sum, wfCount, wfSum)
	}

	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var exemplars []string
	for _, line := range strings.Split(string(om), "\n") {
		_, ex, ok := strings.Cut(line, ` # {trace_id="`)
		if !ok || !strings.HasPrefix(line, "alloystack_watchdog_invoke_latency_seconds_bucket") {
			continue
		}
		id, _, _ := strings.Cut(ex, `"`)
		exemplars = append(exemplars, id)
		httpGetBody(t, "http://"+addr+"/traces/"+id) // fails the test unless 200
	}
	if len(exemplars) != 1 || exemplars[0] != failedID {
		t.Fatalf("merged family exemplars = %v, want only the failed run's %s:\n%s", exemplars, failedID, om)
	}
}
