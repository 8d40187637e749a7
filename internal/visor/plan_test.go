package visor

import (
	"errors"
	"sync/atomic"
	"testing"

	"alloystack/internal/asstd"
	"alloystack/internal/asvm"
	"alloystack/internal/dag"
)

// An unregistered function in a later stage fails the invoke before
// anything runs: no earlier stage executes and no journal is begun, so
// no orphaned, unresumable run is left behind.
func TestUnknownLaterFunctionRunsNothing(t *testing.T) {
	var heads atomic.Int64
	r := NewRegistry()
	r.RegisterNative("head", func(env *asstd.Env, ctx FuncContext) error {
		heads.Add(1)
		return nil
	})
	v := New(r)
	store := openTestStore(t)
	w := &dag.Workflow{Name: "ghostly", Functions: []dag.FuncSpec{
		{Name: "head"},
		{Name: "ghost", DependsOn: []string{"head"}},
	}}
	res, err := v.RunWorkflow(w, testOpts(func(o *RunOptions) { o.Journal = store }))
	if !errors.Is(err, ErrUnknownFunction) || res != nil {
		t.Fatalf("RunWorkflow = (%v, %v), want (nil, ErrUnknownFunction)", res, err)
	}
	if n := heads.Load(); n != 0 {
		t.Fatalf("head ran %d times before the unknown function was reported", n)
	}
	runs, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 0 {
		t.Fatalf("journal holds %d runs, want none: %+v", len(runs), runs)
	}
}

// A compensation handler the registry lacks is reported the same way,
// before the stages it would undo run.
func TestUnknownCompensationRunsNothing(t *testing.T) {
	counts := map[string]*atomic.Int64{}
	v := New(sagaRegistry(counts))
	w := sagaWorkflow(1)
	w.Compensations[0].Name = "unbook-ghost"
	w.Functions[0].Compensate = "unbook-ghost"
	_, err := v.RunWorkflow(w, testOpts(func(o *RunOptions) { o.Journal = openTestStore(t) }))
	if !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("err = %v, want ErrUnknownFunction", err)
	}
	if n := counts["book"].Load(); n != 0 {
		t.Fatalf("book ran %d times under an unknown compensation", n)
	}
}

// A compensation handler's guest image passes the admission scan like a
// stage's: a bad one rejects the workflow before any stage runs.
func TestCompensationGuestIsAdmitted(t *testing.T) {
	counts := map[string]*atomic.Int64{}
	r := sagaRegistry(counts)
	r.RegisterVM("unbook", "c", VMFunc{Prog: badGuests()["bad-jump"], Entry: "run", Engine: asvm.EngineAOT})
	v := New(r)
	store := openTestStore(t)
	w := sagaWorkflow(2)
	w.Compensations[0].Language = "c"
	_, err := v.RunWorkflow(w, testOpts(func(o *RunOptions) { o.Journal = store }))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if got := v.ScanRejects(); got != 1 {
		t.Fatalf("ScanRejects = %d, want 1", got)
	}
	if n := counts["book"].Load(); n != 0 {
		t.Fatalf("book ran %d times under a rejected compensation", n)
	}
	if runs, _ := store.List(); len(runs) != 0 {
		t.Fatalf("journal holds %d runs, want none", len(runs))
	}
}

// RunWorkflow of a workflow that merely shares a registered name runs
// its own functions, not the registered plan's: the watchdog resumes a
// run from the spec its journal recorded.
func TestForeignWorkflowRunsItsOwnFunctions(t *testing.T) {
	counts := map[string]*atomic.Int64{}
	v := New(sagaRegistry(counts))
	if err := v.RegisterWorkflow(&dag.Workflow{Name: "x", Functions: []dag.FuncSpec{{Name: "book"}}}); err != nil {
		t.Fatal(err)
	}
	foreign := &dag.Workflow{Name: "x", Functions: []dag.FuncSpec{{Name: "unbook"}}}
	if _, err := v.RunWorkflow(foreign, testOpts(nil)); err != nil {
		t.Fatal(err)
	}
	if b, u := counts["book"].Load(), counts["unbook"].Load(); b != 0 || u != 1 {
		t.Fatalf("book ran %d, unbook %d; want 0 and 1", b, u)
	}
	if _, err := v.Invoke("x", testOpts(nil)); err != nil {
		t.Fatal(err)
	}
	if b := counts["book"].Load(); b != 1 {
		t.Fatalf("registered plan ran book %d times, want 1", b)
	}
}

// A plan resolves its functions at registration: registering a function
// later changes nothing until the workflow is registered again, which
// replaces its plan.
func TestReRegisterReplacesPlan(t *testing.T) {
	r := NewRegistry()
	v := New(r)
	w := &dag.Workflow{Name: "late", Functions: []dag.FuncSpec{{Name: "late"}}}
	if err := v.RegisterWorkflow(w); err != nil {
		t.Fatalf("register before the function: %v", err)
	}
	if _, err := v.Invoke("late", testOpts(nil)); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("err = %v, want ErrUnknownFunction", err)
	}
	var ran atomic.Int64
	r.RegisterNative("late", func(env *asstd.Env, ctx FuncContext) error {
		ran.Add(1)
		return nil
	})
	if _, err := v.Invoke("late", testOpts(nil)); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("stale plan: err = %v, want ErrUnknownFunction", err)
	}
	if err := v.RegisterWorkflow(w); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Invoke("late", testOpts(nil)); err != nil || ran.Load() != 1 {
		t.Fatalf("after re-register: err = %v, ran %d", err, ran.Load())
	}
}

// A registered workflow whose guest fails the scan still registers; each
// invoke is rejected and counted once.
func TestRejectedRegisteredWorkflowCountsEachInvoke(t *testing.T) {
	r := NewRegistry()
	r.RegisterVM("evil", "c", VMFunc{Prog: badGuests()["bad-stack"], Entry: "run", Engine: asvm.EngineAOT})
	v := New(r)
	if err := v.RegisterWorkflow(&dag.Workflow{
		Name: "evil-wf", Functions: []dag.FuncSpec{{Name: "evil", Language: "c"}},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if got := v.ScanRejects(); got != 0 {
		t.Fatalf("ScanRejects = %d after registration, want 0", got)
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := v.Invoke("evil-wf", testOpts(nil)); !errors.Is(err, ErrRejected) {
			t.Fatalf("invoke %d: err = %v, want ErrRejected", i, err)
		}
		if got := v.ScanRejects(); got != i {
			t.Fatalf("after invoke %d: ScanRejects = %d", i, got)
		}
	}
}
