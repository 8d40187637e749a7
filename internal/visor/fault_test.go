package visor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
)

func fastOpts() RunOptions {
	o := DefaultRunOptions()
	o.CostScale = 0
	o.BufHeapSize = 1 << 20
	return o
}

// Regression for the fixed-size (64) stage error channel: a stage whose
// instance count exceeds the old capacity used to block its goroutines
// forever once every instance failed.
func TestStageWithHundredFailingInstances(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterNative("err", func(env *asstd.Env, ctx FuncContext) error {
		return fmt.Errorf("instance %d failed", ctx.Instance)
	})
	v := New(reg)
	w := &dag.Workflow{Name: "wide-fail", Functions: []dag.FuncSpec{
		{Name: "err", Instances: 100},
	}}

	done := make(chan error, 1)
	go func() {
		_, err := v.RunWorkflow(w, fastOpts())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("failing stage reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("100 failing instances deadlocked the stage")
	}
}

// Watchdog.Stop must drain in-flight invocations instead of aborting
// them mid-flight.
func TestWatchdogStopDrainsInflight(t *testing.T) {
	release := make(chan struct{})
	reg := NewRegistry()
	reg.RegisterNative("slowish", func(env *asstd.Env, ctx FuncContext) error {
		<-release
		return nil
	})
	v := New(reg)
	if err := v.RegisterWorkflow(&dag.Workflow{
		Name: "slowish", Functions: []dag.FuncSpec{{Name: "slowish"}},
	}); err != nil {
		t.Fatal(err)
	}
	wd := NewWatchdog(v)
	wd.OptionsFor = func(string) RunOptions { return fastOpts() }
	addr, err := wd.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		status int
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/invoke/slowish", "application/json", nil)
		if err != nil {
			resCh <- result{0, err}
			return
		}
		defer resp.Body.Close()
		resCh <- result{resp.StatusCode, nil}
	}()
	// Wait for the invocation to be in flight, then stop the node and
	// only afterwards let the function finish.
	for wd.Inflight() == 0 {
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan error, 1)
	go func() { stopped <- wd.Stop() }()
	time.Sleep(20 * time.Millisecond)
	close(release)

	r := <-resCh
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight invocation aborted by Stop: status=%d err=%v", r.status, r.err)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if wd.Completed() != 1 {
		t.Fatalf("completed = %d", wd.Completed())
	}
}

// Unknown workflows and functions map to 404 via errors.Is, and a
// deadline failure maps to 504.
func TestWatchdogStatusMapping(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterNative("slowish", func(env *asstd.Env, ctx FuncContext) error {
		time.Sleep(200 * time.Millisecond)
		return nil
	})
	v := New(reg)
	for _, w := range []*dag.Workflow{
		{Name: "slowish", Functions: []dag.FuncSpec{{Name: "slowish"}}},
		{Name: "ghost-fn", Functions: []dag.FuncSpec{{Name: "no-such-function"}}},
	} {
		if err := v.RegisterWorkflow(w); err != nil {
			t.Fatal(err)
		}
	}
	wd := NewWatchdog(v)
	wd.OptionsFor = func(name string) RunOptions {
		o := fastOpts()
		if name == "slowish" {
			o.FuncTimeout = 10 * time.Millisecond
		}
		return o
	}
	addr, err := wd.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wd.Stop() })

	for _, tc := range []struct {
		workflow string
		want     int
	}{
		{"no-such-workflow", http.StatusNotFound},
		{"ghost-fn", http.StatusNotFound},
		{"slowish", http.StatusGatewayTimeout},
	} {
		resp, err := http.Post("http://"+addr+"/invoke/"+tc.workflow, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var ir InvokeResponse
		json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status = %d (%s), want %d", tc.workflow, resp.StatusCode, ir.Error, tc.want)
		}
	}
}
