package visor

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"alloystack/internal/asstd"
	"alloystack/internal/asvm"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/journal"
	"alloystack/internal/sched"
)

// frontEndNode is a started watchdog over the counting pipeline plus a
// workflow whose guest image the admission scan rejects.
type frontEndNode struct {
	wd    *Watchdog
	store *journal.Store
	evil  *dag.Workflow
}

func newFrontEndNode(t *testing.T) *frontEndNode {
	t.Helper()
	reg := countingRegistry(map[string]*atomic.Int64{})
	reg.RegisterVM("evil", "c", VMFunc{Prog: badGuests()["bad-import"], Entry: "run", Engine: asvm.EngineAOT})
	n := &frontEndNode{
		store: openTestStore(t),
		evil:  &dag.Workflow{Name: "evil-wf", Functions: []dag.FuncSpec{{Name: "evil", Language: "c"}}},
	}
	v := New(reg)
	for _, w := range []*dag.Workflow{pipelineWorkflow(2), n.evil} {
		if err := v.RegisterWorkflow(w); err != nil {
			t.Fatal(err)
		}
	}
	n.wd = NewWatchdog(v)
	n.wd.Journal = n.store
	n.wd.OptionsFor = func(string) RunOptions { return testOpts(nil) }
	if _, err := n.wd.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.wd.Stop() })
	return n
}

// url returns the endpoint's URL for one request against workflow w:
// a fresh invoke, or the resume of an unsealed journaled run of w that
// this call leaves behind.
func (n *frontEndNode) url(t *testing.T, endpoint string, w *dag.Workflow) string {
	t.Helper()
	if endpoint == "invoke" {
		return "http://" + n.wd.Addr() + "/invoke/" + w.Name
	}
	var id string
	if w == n.evil {
		// The scan refuses the workflow before a run's journal opens, so
		// plant the journal a pre-scan node would have left.
		jr, err := n.store.Begin("", w)
		if err != nil {
			t.Fatal(err)
		}
		id = jr.ID()
		jr.Close()
	} else {
		res, err := n.wd.visor.RunWorkflow(w, durableOpts(n.store, func(o *RunOptions) {
			o.Faults = faults.NewPlan(1, faults.Crash{Point: "after-commit:0"})
		}))
		if !errors.Is(err, ErrCrashPoint) {
			t.Fatalf("crashpoint: err = %v, want ErrCrashPoint", err)
		}
		id = res.RunID
	}
	return "http://" + n.wd.Addr() + "/runs/" + id + "/resume"
}

func postInvoke(t *testing.T, url string) (*http.Response, InvokeResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var ir InvokeResponse
	if resp.Header.Get("Content-Type") == "application/json" {
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatalf("reply is not an InvokeResponse: %s", body)
		}
	}
	return resp, ir
}

// TestInvokeAndResumeShareOneFrontEnd drives POST /invoke/{workflow} and
// POST /runs/{id}/resume through the same cases. Before the two handlers
// shared Watchdog.serve, a resume skipped the tracer and the telemetry
// plane, merged nothing into /metrics, left retries/trace_id/transfer
// out of its reply and answered 500 where an invoke says 403.
func TestInvokeAndResumeShareOneFrontEnd(t *testing.T) {
	for _, endpoint := range []string{"invoke", "resume"} {
		t.Run(endpoint+"/saturated", func(t *testing.T) {
			n := newFrontEndNode(t)
			n.wd.Sched = sched.New(sched.Config{MaxConcurrent: 1, MaxQueue: -1})
			defer n.wd.Sched.Close()
			url := n.url(t, endpoint, pipelineWorkflow(2))
			grant, err := n.wd.Sched.Admit(context.Background(), "other", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer grant.Release()
			resp, ir := postInvoke(t, url)
			if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("status = %d, Retry-After = %q; want 429 with a hint",
					resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if ir.Workflow != "pipeline" || ir.Error == "" || n.wd.Shed() != 1 {
				t.Fatalf("reply = %+v, shed = %d", ir, n.wd.Shed())
			}
		})
		t.Run(endpoint+"/rejected-guest", func(t *testing.T) {
			n := newFrontEndNode(t)
			resp, ir := postInvoke(t, n.url(t, endpoint, n.evil))
			if resp.StatusCode != http.StatusForbidden || !strings.Contains(ir.Error, "admission scan") {
				t.Fatalf("status = %d, reply = %+v; want 403 naming the admission scan", resp.StatusCode, ir)
			}
		})
		t.Run(endpoint+"/traced", func(t *testing.T) {
			n := newFrontEndNode(t)
			n.wd.Telemetry = NewTelemetry(TelemetryConfig{SamplerSeed: 1})
			url := n.url(t, endpoint, pipelineWorkflow(2))
			resp, ir := postInvoke(t, url)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, reply = %+v", resp.StatusCode, ir)
			}
			if ir.TraceID == "" || ir.Transfer == "" || ir.MemPeak == 0 {
				t.Fatalf("reply lacks trace_id/transfer/mem_peak_bytes: %+v", ir)
			}
			if got := n.wd.Telemetry.Latency().Count(); got != 1 {
				t.Fatalf("merged latency histogram count = %d, want 1", got)
			}
			if got := n.wd.Telemetry.hist("pipeline").Count(); got != 1 {
				t.Fatalf("telemetry histogram count = %d, want 1", got)
			}
			if n.wd.memPeak.Load() == 0 {
				t.Fatal("run not merged into the /metrics counters")
			}
			if endpoint == "resume" && (!ir.Resumed || ir.StagesSkipped != 1 || ir.Verdict != "ok") {
				t.Fatalf("resume reply = %+v", ir)
			}
		})
	}
}

// Only an all-digit suffix names an instance of a generic body: "chain-3"
// runs the registered "chain", while "chain-x" is a function nobody
// registered. It is refused before anything runs, with 404 at the front
// door, instead of being handed to the chain body to fail inside it.
func TestOnlyDigitSuffixesShareABody(t *testing.T) {
	var ran sync.Map
	reg := NewRegistry()
	reg.RegisterNative("chain", func(_ *asstd.Env, ctx FuncContext) error {
		ran.Store(ctx.Function, true)
		return nil
	})
	v := New(reg)
	for _, name := range []string{"chain-3", "chain-x"} {
		if err := v.RegisterWorkflow(&dag.Workflow{Name: name, Functions: []dag.FuncSpec{{Name: name}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Invoke("chain-3", testOpts(nil)); err != nil {
		t.Fatalf("chain-3: %v", err)
	}
	if _, err := v.Invoke("chain-x", testOpts(nil)); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("chain-x: err = %v, want ErrUnknownFunction", err)
	}

	wd := NewWatchdog(v)
	wd.OptionsFor = func(string) RunOptions { return testOpts(nil) }
	if _, err := wd.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()
	if resp, ir := postInvoke(t, "http://"+wd.Addr()+"/invoke/chain-x"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, reply = %+v; want 404", resp.StatusCode, ir)
	}
	if _, ok := ran.Load("chain-x"); ok {
		t.Fatal("chain-x ran the chain body")
	}
	if _, ok := ran.Load("chain-3"); !ok {
		t.Fatal("chain-3 did not run the chain body")
	}
}

// A sealed run refuses resume with 409.
func TestResumeOfSealedRunConflicts(t *testing.T) {
	n := newFrontEndNode(t)
	_, ir := postInvoke(t, "http://"+n.wd.Addr()+"/invoke/pipeline?durable=1")
	if ir.Verdict != "ok" || ir.RunID == "" {
		t.Fatalf("durable invoke reply = %+v", ir)
	}
	resp, _ := postInvoke(t, "http://"+n.wd.Addr()+"/runs/"+ir.RunID+"/resume")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	if statusOf(journal.ErrSealed) != http.StatusConflict {
		t.Fatal("a run sealed between the journal replay and the resume must map to 409 too")
	}
}

// ?durable=1 on a node with no journal must refuse, not run the
// workflow non-durable behind the client's back.
func TestDurableRequestWithoutJournalRefused(t *testing.T) {
	n := newFrontEndNode(t)
	n.wd.Journal = nil
	resp, err := http.Post("http://"+n.wd.Addr()+"/invoke/pipeline?durable=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented || !strings.Contains(string(body), errNoJournal.Error()) {
		t.Fatalf("status = %d, body %q; want 501 %q", resp.StatusCode, body, errNoJournal)
	}
	if n.wd.Completed() != 0 {
		t.Fatal("the refused request still ran")
	}
	rresp, err := http.Post("http://"+n.wd.Addr()+"/runs/some-run/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rbody, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusNotImplemented || string(rbody) != string(body) {
		t.Fatalf("resume: status = %d, body %q; want the same 501 as invoke (%q)", rresp.StatusCode, rbody, body)
	}
}
