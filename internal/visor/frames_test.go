package visor

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/xfer"
)

// TestFrameRendersHTTPBytes: an invoke frame's reply carries the status,
// the Retry-After and the very body bytes the HTTP handlers send for the
// same answer.
func TestFrameRendersHTTPBytes(t *testing.T) {
	for _, a := range []answer{
		{status: http.StatusOK, resp: InvokeResponse{Workflow: "wf", E2EMillis: 1.5, MemPeak: 65536,
			Transfer: "refpass <html>", TraceID: "t-1", Trace: json.RawMessage(`{"traceEvents":[]}`)}},
		{status: http.StatusTooManyRequests, retryAfter: 3, resp: InvokeResponse{Workflow: "wf", Error: "shed"}},
		{status: http.StatusNotFound, resp: InvokeResponse{Workflow: "ghost", Error: "unknown workflow"}},
		{status: http.StatusNotImplemented, text: errNoJournal.Error()},
		{status: http.StatusBadRequest, text: "missing workflow name"},
	} {
		rec := httptest.NewRecorder()
		writeAnswer(rec, a)
		f := &framed{ans: a}
		f.enc = json.NewEncoder(&f.body)
		if got := f.render(); !bytes.Equal(got, rec.Body.Bytes()) {
			t.Errorf("%d: frame body %q, HTTP body %q", a.status, got, rec.Body.Bytes())
		}
		hint := ""
		if a.retryAfter > 0 {
			hint = strconv.Itoa(a.retryAfter)
		}
		if rec.Code != a.status || rec.Header().Get("Retry-After") != hint {
			t.Errorf("HTTP answered %d Retry-After %q for status %d hint %d",
				rec.Code, rec.Header().Get("Retry-After"), a.status, a.retryAfter)
		}
	}
}

// blockingNode is a started watchdog whose one workflow, "block", runs a
// function that waits until release is closed.
func blockingNode(t *testing.T) (wd *Watchdog, release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	reg := NewRegistry()
	reg.RegisterNative("block", func(*asstd.Env, FuncContext) error {
		<-release
		return nil
	})
	v := New(reg)
	if err := v.RegisterWorkflow(&dag.Workflow{Name: "block", Functions: []dag.FuncSpec{{Name: "block"}}}); err != nil {
		t.Fatal(err)
	}
	wd = NewWatchdog(v)
	wd.OptionsFor = func(string) RunOptions { return testOpts(nil) }
	if _, err := wd.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wd.Stop() })
	return wd, release
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A gateway that hangs up cancels the run its connection carried, as a
// disconnected HTTP client cancels its request's run.
func TestDroppedFrameConnectionCancelsRun(t *testing.T) {
	wd, release := blockingNode(t)
	defer close(release)
	c, err := xfer.DialInvoke(wd.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	replied := make(chan error, 1)
	go func() {
		_, err := c.Invoke("block", "")
		replied <- err
	}()
	waitFor(t, "the run to start", func() bool { return wd.Inflight() == 1 })
	c.Close()
	if err := <-replied; err == nil {
		t.Fatal("invoke on a closed connection replied")
	}
	// The function is still blocked: only the cancellation ends the run.
	waitFor(t, "the run to be cancelled", func() bool { return wd.Completed() == 1 })
	if wd.failures.Load() != 1 {
		t.Fatalf("failures = %d, want the cancelled run counted as failed", wd.failures.Load())
	}
}

// TestFrameStopDrains: Stop closes an idle framed connection at once,
// and lets one whose invoke is in flight reply before it closes it.
func TestFrameStopDrains(t *testing.T) {
	wd, release := blockingNode(t)
	idle, err := xfer.DialInvoke(wd.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if rep, err := idle.Invoke("ghost", ""); err != nil || rep.Status != http.StatusNotFound {
		t.Fatalf("upgrade invoke: %+v, %v; want the node's 404", rep, err)
	}
	busy, err := xfer.DialInvoke(wd.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	replied := make(chan xfer.InvokeReply, 1)
	go func() {
		rep, err := busy.Invoke("block", "")
		if err != nil {
			t.Error(err)
		}
		replied <- rep
	}()
	waitFor(t, "the run to start", func() bool { return wd.Inflight() == 1 })

	stopped := make(chan error, 1)
	go func() { stopped <- wd.Stop() }()
	waitFor(t, "Stop to start draining", func() bool {
		wd.frames.mu.Lock()
		defer wd.frames.mu.Unlock()
		return wd.frames.closing
	})
	// The idle connection is closed without waiting for the busy one.
	idle.SetDeadline(time.Now().Add(time.Second))
	if _, err := idle.Invoke("ghost", ""); !errors.Is(err, xfer.ErrNoReply) {
		t.Fatalf("invoke on the idle connection after Stop: %v, want ErrNoReply", err)
	}
	select {
	case err := <-stopped:
		t.Fatalf("Stop returned (%v) with an invoke in flight", err)
	default:
	}
	close(release)
	if rep := <-replied; rep.Status != http.StatusOK {
		t.Fatalf("in-flight invoke answered %d %s, want 200", rep.Status, rep.Body)
	}
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	if _, err := busy.Invoke("block", ""); err == nil {
		t.Fatal("the drained connection still serves")
	}
}
