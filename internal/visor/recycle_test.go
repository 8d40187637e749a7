package visor_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/asvm"
	"alloystack/internal/dag"
	"alloystack/internal/mem"
	"alloystack/internal/pool"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
	"alloystack/internal/xfer"
)

// hogSize is the payload the tests below put in a WFD heap: its heap
// chunk (the payload plus alignment slack and a guard page) is backed
// from the 256 KiB class of the recycled-array free list, as is the
// smaller heap chunk of a warm wc-py-warm clone.
const hogSize = 150 << 10

// hogSrc writes 0xA5 over the first page of hogSize bytes and sends
// them on out-edge 0, which backs a WFD heap chunk, then spins on the
// clock for arg 0 microseconds without yielding: a guest that ignores
// its deadline, bounded here only so the test process goes idle again
// (nothing can interrupt a guest yet).
var hogSrc = asstd.WASISlotImports + fmt.Sprintf(`
memory %d
func run 1 2 0
  push 0
  local.set 1
fill:
  local.get 1
  push 0xA5
  store8
  local.get 1
  push 1
  add
  local.set 1
  local.get 1
  push %d
  lt
  jnz fill
  push 0
  push %d
  push 0
  hostcall slot_send
  drop
  hostcall clock_time_get
  local.get 0
  add
  local.set 1
top:
  hostcall clock_time_get
  local.get 1
  lt
  jnz top
  ret
end
`, 1<<20, mem.PageSize, hogSize)

// hogSpin is how long the "stuck" hog spins; "hog" does not.
const hogSpin = 150 * time.Millisecond

// hogVisor registers the hog guest as "hog" and "stuck", one-function
// workflows of the same names, and the options that run them.
func hogVisor(t *testing.T, reg *visor.Registry) (*visor.Visor, visor.RunOptions) {
	t.Helper()
	prog, err := asvm.Assemble(hogSrc)
	if err != nil {
		t.Fatal(err)
	}
	for name, us := range map[string]int64{"hog": 0, "stuck": hogSpin.Microseconds()} {
		reg.RegisterVM(name, "c", visor.VMFunc{
			Prog: prog, Entry: "run", Engine: asvm.EngineAOT,
			Resolve: func(visor.FuncContext) ([]int64, []string, []string) {
				return []int64{us}, nil, []string{"out"}
			},
		})
	}
	opts := visor.DefaultRunOptions()
	opts.CostScale = 0
	return visor.New(reg), opts
}

func hogWorkflow(name string) *dag.Workflow {
	return &dag.Workflow{Name: name, Functions: []dag.FuncSpec{{Name: name, Language: "c"}}}
}

// drainSrc receives in-edge 0 into its memory, which releases the
// sender's buffer to the run's buffer pool.
var drainSrc = asstd.WASISlotImports + fmt.Sprintf(`
memory %d
func run 0 0 0
  push 0
  hostcall slot_size
  drop
  push 0
  push %d
  push 0
  hostcall slot_recv
  drop
  ret
end
`, 1<<20, hogSize)

// A native body may keep an AsBuffer's bytes forever, so the Space it
// viewed must never recycle its arrays: after 100 warm guest runs have
// recycled theirs through the same free-list class, clearing every
// array they take, the kept views still read what the bodies wrote. One
// body allocates its buffer; the other is handed, from the run's buffer
// pool, a buffer a guest made and released.
func TestRecycledWFDKeepsNativeViews(t *testing.T) {
	reg := visor.NewRegistry()
	kept := map[string][]byte{}
	keep := func(alloc func(env *asstd.Env) (*asstd.Buffer, error)) visor.NativeFunc {
		return func(env *asstd.Env, ctx visor.FuncContext) error {
			b, err := alloc(env)
			if err != nil {
				return err
			}
			workloads.FillPattern(b.Bytes())
			kept[ctx.Workflow] = b.Bytes()
			return nil
		}
	}
	reg.RegisterNative("keeper", keep(func(env *asstd.Env) (*asstd.Buffer, error) {
		return asstd.NewBuffer(env, "kept", hogSize)
	}))
	reg.RegisterNative("adopter", keep(func(env *asstd.Env) (*asstd.Buffer, error) {
		return env.Transport().Alloc("kept", hogSize)
	}))
	reg.RegisterVM("drain", "c", visor.VMFunc{
		Prog: asvm.MustAssemble(drainSrc), Entry: "run", Engine: asvm.EngineAOT,
		Resolve: func(visor.FuncContext) ([]int64, []string, []string) {
			return nil, []string{"out"}, nil
		},
	})
	v, opts := hogVisor(t, reg)
	for _, w := range []*dag.Workflow{
		{Name: "keeper", Functions: []dag.FuncSpec{{Name: "keeper"}}},
		{Name: "handoff", Functions: []dag.FuncSpec{
			{Name: "hog", Language: "c"},
			{Name: "drain", Language: "c", DependsOn: []string{"hog"}},
			{Name: "adopter", DependsOn: []string{"drain"}},
		}},
	} {
		res, err := v.RunWorkflow(w, opts)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if w.Name == "handoff" && res.Transfer.Kind(xfer.KindRefpass).SlotsReused != 1 {
			t.Fatalf("handoff: the native body was not handed the guest's buffer: %+v", res.Transfer.Kind(xfer.KindRefpass))
		}
		if !workloads.CheckPattern(kept[w.Name]) {
			t.Fatalf("%s: the kept view does not hold the pattern even before any other run", w.Name)
		}
	}

	p, err := pool.New(pool.Spec{Workflow: "hog", Core: opts.Options}, pool.Config{Min: 1, Max: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	warm := opts
	warm.Pool, warm.WarmStart = p, true
	hog := hogWorkflow("hog")
	for i := range 100 {
		res, err := v.RunWorkflow(hog, warm)
		if err != nil {
			t.Fatalf("warm run %d: %v", i, err)
		}
		if !res.WarmStart {
			t.Fatalf("warm run %d: the pool missed", i)
		}
		p.Maintain(time.Now())
	}
	for name, b := range kept {
		if !workloads.CheckPattern(b) {
			t.Errorf("%s: a native body's kept view reads another run's bytes", name)
		}
	}
}

// An attempt abandoned at FuncTimeout may still be running on its WFD
// when the run destroys it, so Destroy leaves that WFD's arrays to the
// GC. The same guest run to its end parks its heap chunk, which shows
// the test can see a parked array.
func TestRecycledNotAfterAbandonedAttempt(t *testing.T) {
	v, opts := hogVisor(t, visor.NewRegistry())

	// parked runs the one-function workflow fn and reports whether the
	// free-list class of its heap chunk then hands out the guest's bytes.
	parked := func(fn string, opts visor.RunOptions) (bool, error) {
		for range mem.ParkPerClass { // empty the class
			mem.Take(hogSize)
		}
		_, err := v.RunWorkflow(hogWorkflow(fn), opts)
		return bytes.IndexByte(mem.Take(hogSize), 0xA5) >= 0, err
	}

	got, err := parked("hog", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("a guest run that ended parked no heap chunk")
	}

	opts.FuncTimeout = 10 * time.Millisecond
	start := time.Now()
	got, err = parked("stuck", opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("the stuck guest's run: %v, want a deadline", err)
	}
	if got {
		t.Error("a WFD destroyed under an abandoned attempt parked its heap chunk")
	}
	time.Sleep(time.Until(start.Add(hogSpin + 50*time.Millisecond))) // let the guest finish
}
