// Chaos suite: run real workflows under seeded fault plans and assert
// recovery, determinism, deadline enforcement and cancellation — the
// executable form of the paper's §3.1 fault-tolerance claim.
package faults_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// chaosOpts is the standard fast-test configuration: no simulated
// platform costs, small buffer heap, millisecond-scale backoff.
func chaosOpts(plan *faults.Plan) visor.RunOptions {
	o := visor.DefaultRunOptions()
	o.CostScale = 0
	o.BufHeapSize = 64 << 20
	o.Faults = plan
	o.Retry = &faults.RetryPolicy{
		MaxRetries: 3,
		BaseDelay:  time.Millisecond,
		MaxDelay:   4 * time.Millisecond,
		Multiplier: 2,
		Jitter:     0.2,
		MaxElapsed: 10 * time.Second,
		Seed:       plan.Seed(),
	}
	return o
}

func newBenchVisor(t *testing.T) *visor.Visor {
	t.Helper()
	reg := visor.NewRegistry()
	workloads.RegisterAll(reg)
	return visor.New(reg)
}

// runWordCount executes one wordcount run under the given plan and
// returns the result.
func runWordCount(t *testing.T, plan *faults.Plan) *visor.RunResult {
	t.Helper()
	v := newBenchVisor(t)
	w := workloads.WordCount(3, "native")
	o := chaosOpts(plan)
	img, err := workloads.BuildTextImage(64*1024, false)
	if err != nil {
		t.Fatal(err)
	}
	o.DiskImage = img
	res, err := v.RunWorkflow(w, o)
	if err != nil {
		t.Fatalf("wordcount under %s: %v", plan, err)
	}
	return res
}

func TestChaosWordCountReplaysIdentically(t *testing.T) {
	mkPlan := func() *faults.Plan {
		return faults.NewPlan(42,
			faults.PanicEvery{Func: "wc-map", N: 2},
			faults.DelayOnce{Func: "wc-split", D: time.Millisecond},
		)
	}
	p1, p2 := mkPlan(), mkPlan()
	r1 := runWordCount(t, p1)
	r2 := runWordCount(t, p2)

	// Each of the 3 wc-map instances panics once before succeeding.
	if r1.Retries != 3 || r2.Retries != 3 {
		t.Fatalf("retries = %d / %d, want 3", r1.Retries, r2.Retries)
	}
	if r1.RetryWait <= 0 {
		t.Fatal("no backoff wait recorded")
	}
	if r1.RetryBudget != 3 {
		t.Fatalf("retry budget = %d", r1.RetryBudget)
	}
	fp1, fp2 := p1.Fingerprint(), p2.Fingerprint()
	if fp1 == "" || fp1 != fp2 {
		t.Fatalf("injected-fault sequences differ:\n%s\n--\n%s", fp1, fp2)
	}
	// 3 panics + 1 delay recorded.
	if got := len(p1.Events()); got != 4 {
		t.Fatalf("events = %d: %v", got, p1.Events())
	}
}

func TestChaosFunctionChainRecovers(t *testing.T) {
	v := newBenchVisor(t)
	plan := faults.NewPlan(7, faults.PanicEvery{Func: "chain-2", N: 3})
	o := chaosOpts(plan)
	w := workloads.FunctionChain(5, 16*1024, "native")
	res, err := v.RunWorkflow(w, o)
	if err != nil {
		t.Fatalf("chain under %s: %v", plan, err)
	}
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2", res.Retries)
	}
}

func TestChaosRetryBudgetExhaustedFailsWorkflow(t *testing.T) {
	v := newBenchVisor(t)
	// Succeeds only on attempt 10; budget is 3 retries — must fail.
	plan := faults.NewPlan(7, faults.PanicEvery{Func: "chain-1", N: 10})
	o := chaosOpts(plan)
	w := workloads.FunctionChain(3, 4096, "native")
	_, err := v.RunWorkflow(w, o)
	if err == nil {
		t.Fatal("exhausted retry budget did not fail the workflow")
	}
	if !strings.Contains(err.Error(), "injected panic") {
		t.Fatalf("error does not surface the fault: %v", err)
	}
}

func TestChaosFuncTimeoutIsDeadlineNotHang(t *testing.T) {
	reg := visor.NewRegistry()
	reg.RegisterNative("slow", func(env *asstd.Env, ctx visor.FuncContext) error {
		time.Sleep(300 * time.Millisecond)
		return nil
	})
	v := visor.New(reg)
	w := &dag.Workflow{Name: "slow", Functions: []dag.FuncSpec{{Name: "slow"}}}
	o := visor.DefaultRunOptions()
	o.CostScale = 0
	o.BufHeapSize = 1 << 20
	o.FuncTimeout = 20 * time.Millisecond

	start := time.Now()
	_, err := v.RunWorkflow(w, o)
	if err == nil {
		t.Fatal("slow function did not fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline error", err)
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Fatalf("timeout took %v — the run hung past the deadline", time.Since(start))
	}
}

func TestChaosInvocationDeadline(t *testing.T) {
	reg := visor.NewRegistry()
	reg.RegisterNative("slow", func(env *asstd.Env, ctx visor.FuncContext) error {
		time.Sleep(300 * time.Millisecond)
		return nil
	})
	v := visor.New(reg)
	w := &dag.Workflow{Name: "slow", Functions: []dag.FuncSpec{{Name: "slow"}}}
	o := visor.DefaultRunOptions()
	o.CostScale = 0
	o.BufHeapSize = 1 << 20
	o.Deadline = 25 * time.Millisecond

	_, err := v.RunWorkflow(w, o)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline error", err)
	}
}

// TestChaosCancelStopsInflightInstances cancels o.Ctx under a stage of
// blocked instances: four, and one, which runs on the stage's own
// goroutine.
func TestChaosCancelStopsInflightInstances(t *testing.T) {
	for _, instances := range []int{4, 1} {
		t.Run(fmt.Sprint(instances), func(t *testing.T) {
			var started atomic.Int64
			release := make(chan struct{})
			reg := visor.NewRegistry()
			reg.RegisterNative("block", func(env *asstd.Env, ctx visor.FuncContext) error {
				started.Add(1)
				<-release
				return nil
			})
			defer close(release)
			v := visor.New(reg)
			w := &dag.Workflow{Name: "block", Functions: []dag.FuncSpec{
				{Name: "block", Instances: instances},
			}}
			o := visor.DefaultRunOptions()
			o.CostScale = 0
			o.BufHeapSize = 1 << 20
			ctx, cancel := context.WithCancel(context.Background())
			o.Ctx = ctx

			done := make(chan error, 1)
			go func() {
				_, err := v.RunWorkflow(w, o)
				done <- err
			}()
			// Wait until every instance is genuinely in flight, then cancel.
			for started.Load() < int64(instances) {
				time.Sleep(time.Millisecond)
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled workflow did not return — instances not stopped")
			}
		})
	}
}

// TestChaosFailedInstanceCancelsSiblings: in one stage, a function that
// panics exhausts its (zero) retry budget while its sibling is still
// blocked; the stage must cancel the sibling and fail promptly. A stage
// runs its specs in name order and its last instance on its own
// goroutine, so the two orders put the failing instance once there and
// once on a launched goroutine.
func TestChaosFailedInstanceCancelsSiblings(t *testing.T) {
	for _, tc := range []struct{ boom, block string }{
		{"b-boom", "a-block"}, // the failing instance runs on the stage's goroutine
		{"a-boom", "b-block"}, // the blocked one does
	} {
		t.Run(tc.boom, func(t *testing.T) {
			release := make(chan struct{})
			defer close(release)
			reg := visor.NewRegistry()
			reg.RegisterNative(tc.boom, func(env *asstd.Env, ctx visor.FuncContext) error {
				panic("boom")
			})
			reg.RegisterNative(tc.block, func(env *asstd.Env, ctx visor.FuncContext) error {
				<-release
				return nil
			})
			v := visor.New(reg)
			w := &dag.Workflow{Name: "mixed", Functions: []dag.FuncSpec{
				{Name: tc.boom},
				{Name: tc.block},
			}}
			o := visor.DefaultRunOptions()
			o.CostScale = 0
			o.BufHeapSize = 1 << 20

			done := make(chan error, 1)
			go func() {
				_, err := v.RunWorkflow(w, o)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "boom") {
					t.Fatalf("err = %v, want the boom fault", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("stage failure did not cancel in-flight sibling")
			}
		})
	}
}

// TestChaosSoak replays several seeds across two workflows — the long
// mode of the suite, skipped under -short so `make ci` stays fast.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		plan := faults.NewPlan(seed,
			faults.PanicEvery{Func: "wc-map", N: 2},
			faults.PanicEvery{Func: "wc-reduce", N: 2},
			faults.DelayOnce{Func: "wc-merge", D: time.Millisecond},
		)
		res := runWordCount(t, plan)
		if res.Retries != 6 {
			t.Fatalf("seed %d: retries = %d, want 6", seed, res.Retries)
		}
		v := newBenchVisor(t)
		chain := workloads.FunctionChain(6, 8*1024, "native")
		cp := faults.NewPlan(seed,
			faults.PanicEvery{Func: "chain-0", N: 2},
			faults.PanicEvery{Func: "chain-5", N: 4},
		)
		res2, err := v.RunWorkflow(chain, chaosOpts(cp))
		if err != nil {
			t.Fatalf("seed %d chain: %v", seed, err)
		}
		if res2.Retries != 4 {
			t.Fatalf("seed %d chain: retries = %d, want 4", seed, res2.Retries)
		}
	}
}
