package visor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/metrics"
	"alloystack/internal/trace"
	"alloystack/internal/xfer"
)

// phasedRegistry registers a function that charges measurable time to
// each Figure-15 stage through Env.TimeStage, so the trace's phase
// spans and the StageClock derive from the same measured windows.
func phasedRegistry() *Registry {
	r := NewRegistry()
	r.RegisterNative("phased", func(env *asstd.Env, ctx FuncContext) error {
		for _, st := range []metrics.Stage{
			metrics.StageReadInput, metrics.StageCompute, metrics.StageTransfer,
		} {
			if err := env.TimeStage(st, func() error {
				time.Sleep(2 * time.Millisecond)
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return r
}

func phasedWorkflow(instances int) *dag.Workflow {
	return &dag.Workflow{Name: "phased-wf", Functions: []dag.FuncSpec{
		{Name: "phased", Instances: instances},
	}}
}

// chromeDoc mirrors the subset of the Chrome trace_event format the
// tests inspect.
type chromeDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"`
	} `json:"traceEvents"`
}

// TestTraceAgreesWithStageClock checks the acceptance bar for the span
// plumbing: the per-stage totals summed from the exported Chrome JSON
// must agree with the StageClock breakdown within 1%. Both views are
// charged from the same (start, duration) window, so any drift means a
// phase is double-counted or dropped.
func TestTraceAgreesWithStageClock(t *testing.T) {
	tracer := trace.New("visor", trace.Options{})
	v := New(phasedRegistry())
	res, err := v.RunWorkflow(phasedWorkflow(2), testOpts(func(o *RunOptions) {
		o.Trace = tracer
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" || res.TraceID != tracer.TraceID() {
		t.Fatalf("TraceID = %q, tracer = %q", res.TraceID, tracer.TraceID())
	}

	data, err := trace.ChromeJSON(tracer)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome JSON: %v", err)
	}
	phaseMicros := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Cat == trace.CatPhase {
			phaseMicros[ev.Name] += ev.Dur
		}
	}
	breakdown := res.Clock.Breakdown()
	for _, stage := range []string{"read-input", "compute", "transfer", "wait"} {
		clockMicros := float64(breakdown[stage]) / float64(time.Microsecond)
		got := phaseMicros[stage]
		if clockMicros == 0 {
			if got != 0 {
				t.Fatalf("stage %s: trace has %.1fµs, clock has none", stage, got)
			}
			continue
		}
		if diff := math.Abs(got-clockMicros) / clockMicros; diff > 0.01 {
			t.Fatalf("stage %s: trace %.1fµs vs clock %.1fµs (%.2f%% off)",
				stage, got, clockMicros, diff*100)
		}
	}
	if phaseMicros["read-input"] == 0 || phaseMicros["compute"] == 0 {
		t.Fatalf("phase spans missing: %v", phaseMicros)
	}
}

// TestTraceCapturesTransferSpans checks the data-plane decorator: a
// producer/consumer pair moving a slot through the env's installed
// transport yields CatXfer spans carrying the transport kind and the
// payload size.
func TestTraceCapturesTransferSpans(t *testing.T) {
	r := NewRegistry()
	r.RegisterNative("emit", func(env *asstd.Env, ctx FuncContext) error {
		return env.Transport().Send("edge", []byte("payload-bytes"))
	})
	r.RegisterNative("absorb", func(env *asstd.Env, ctx FuncContext) error {
		data, release, err := env.Transport().Recv("edge")
		if err != nil {
			return err
		}
		defer release()
		if string(data) != "payload-bytes" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
	tracer := trace.New("visor", trace.Options{})
	v := New(r)
	w := &dag.Workflow{Name: "w", Functions: []dag.FuncSpec{
		{Name: "emit"},
		{Name: "absorb", DependsOn: []string{"emit"}},
	}}
	if _, err := v.RunWorkflow(w, testOpts(func(o *RunOptions) {
		o.Trace = tracer
	})); err != nil {
		t.Fatal(err)
	}
	var sends, recvs int
	for _, sd := range tracer.Spans() {
		if sd.Cat != trace.CatXfer {
			continue
		}
		if sd.Attrs["kind"] != xfer.KindRefpass {
			t.Fatalf("xfer span %q kind = %q: %+v", sd.Name, sd.Attrs["kind"], sd)
		}
		switch {
		case strings.HasPrefix(sd.Name, "send:"):
			sends++
			if sd.Attrs["bytes"] != fmt.Sprint(len("payload-bytes")) {
				t.Fatalf("send span bytes = %q", sd.Attrs["bytes"])
			}
		case strings.HasPrefix(sd.Name, "recv:"):
			recvs++
		}
	}
	if sends == 0 || recvs == 0 {
		t.Fatalf("transfer spans missing: sends=%d recvs=%d", sends, recvs)
	}
}

// TestFailedRunDumpsFlightRecorder drives a chaos plan past the retry
// budget and checks the automatic post-mortem: the dump must name the
// injected fault and the span that was active when it fired.
func TestFailedRunDumpsFlightRecorder(t *testing.T) {
	tracer := trace.New("visor", trace.Options{})
	plan := faults.NewPlan(7, faults.PanicEvery{Func: "phased", N: 5})
	var out bytes.Buffer
	v := New(phasedRegistry())
	_, err := v.RunWorkflow(phasedWorkflow(1), testOpts(func(o *RunOptions) {
		o.Stdout = &out
		o.Trace = tracer
		o.Faults = plan
		o.Retry = &faults.RetryPolicy{MaxRetries: 1} // budget 1 < the 4 panics the plan injects
	}))
	if err == nil {
		t.Fatal("chaos run succeeded unexpectedly")
	}
	dump := out.String()
	if !strings.Contains(dump, "flight recorder") {
		t.Fatalf("no flight-recorder dump in output:\n%s", dump)
	}
	if !strings.Contains(dump, "injected panic") {
		t.Fatalf("dump does not report the injected fault:\n%s", dump)
	}
	if !strings.Contains(dump, "active span: phased[0]") {
		t.Fatalf("dump does not name the active span:\n%s", dump)
	}
}

// TestWatchdogTraceQueryAndMetrics drives the HTTP surface: ?trace=1
// returns the Chrome trace inline, and /metrics serves the Prometheus
// families. Concurrent scrapes racing Stop must be shutdown-safe (the
// -race run enforces that part).
func TestWatchdogTraceQueryAndMetrics(t *testing.T) {
	v := New(testRegistry(t))
	if err := v.RegisterWorkflow(pipelineWorkflow(2)); err != nil {
		t.Fatal(err)
	}
	wd := NewWatchdog(v)
	wd.OptionsFor = func(string) RunOptions { return testOpts(nil) }
	addr, err := wd.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post("http://"+addr+"/invoke/pipeline?trace=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ir InvokeResponse
	err = json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ir.TraceID == "" || len(ir.Trace) == 0 {
		t.Fatalf("traced invoke returned no trace: %+v", ir)
	}
	var doc chromeDoc
	if err := json.Unmarshal(ir.Trace, &doc); err != nil {
		t.Fatalf("returned trace is not Chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("returned trace has no events")
	}
	if ir.Transfer == "" {
		t.Fatal("traced invoke returned no transfer summary")
	}

	body := httpGetBody(t, "http://"+addr+"/metrics")
	for _, want := range []string{
		"alloystack_watchdog_invocations_total 1",
		"alloystack_watchdog_invoke_latency_seconds_count 1",
		"alloystack_watchdog_transport_bytes_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	// Scrapes racing shutdown: Stop must not race handler state.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get("http://" + addr + "/metrics")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	if err := wd.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestTracingDisabledChangesNothing re-runs the traced pipeline with a
// nil tracer and checks the result still carries no trace artifacts —
// the no-op path the bench gate relies on.
func TestTracingDisabledChangesNothing(t *testing.T) {
	v := New(testRegistry(t))
	var out bytes.Buffer
	res, err := v.RunWorkflow(pipelineWorkflow(4), testOpts(func(o *RunOptions) {
		o.Stdout = &out
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" {
		t.Fatalf("untraced run has TraceID %q", res.TraceID)
	}
	if out.String() != "total=20" {
		t.Fatalf("output = %q", out.String())
	}
}
