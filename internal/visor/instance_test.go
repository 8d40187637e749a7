package visor_test

import (
	"sync"
	"testing"
	"unsafe"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// TestBareFuncContextSlotNames holds the plan's slot names to the
// convention every body and spill path shares. Every function of each
// registered native workflow is replaced by a body that asks its
// context for the slot of every edge it has, to and from every instance
// on the other side, and checks that the name equals visor.Slot's and
// what a bare FuncContext of the same instance formats. The names must
// come from the plan: asked twice, a context hands back the same bytes,
// and the producer's name of an edge is the consumer's.
func TestBareFuncContextSlotNames(t *testing.T) {
	for _, wf := range []*dag.Workflow{
		workloads.FunctionChain(8, 64<<10, "native"),
		workloads.WordCount(3, "native"),
		workloads.ParallelSorting(3, "native"),
		workloads.Pipe(4096, "native"),
	} {
		t.Run(wf.Name, func(t *testing.T) {
			instances := map[string]int{}
			deps := map[string][]string{}     // function -> its dependencies
			children := map[string][]string{} // function -> its dependants
			for _, f := range wf.Functions {
				instances[f.Name] = f.InstancesOf()
				deps[f.Name] = f.DependsOn
				for _, d := range f.DependsOn {
					children[d] = append(children[d], f.Name)
				}
			}
			var (
				mu    sync.Mutex
				bytes = map[string]*byte{} // slot name -> the one backing the plan hands out
				seen  int
			)
			check := func(ctx visor.FuncContext, got, want, bare func() string) {
				mu.Lock()
				defer mu.Unlock()
				name := got()
				switch {
				case name != want():
					t.Errorf("%s[%d]: plan names %q, visor.Slot %q", ctx.Function, ctx.Instance, name, want())
				case bare() != name:
					t.Errorf("%s[%d]: a bare context names %q, the plan %q", ctx.Function, ctx.Instance, bare(), name)
				case unsafe.StringData(got()) != unsafe.StringData(name):
					t.Errorf("%s[%d]: %q formatted afresh, not read from the plan", ctx.Function, ctx.Instance, name)
				}
				if b, ok := bytes[name]; ok && b != unsafe.StringData(name) {
					t.Errorf("%s[%d]: %q is a different string at each end of its edge", ctx.Function, ctx.Instance, name)
				}
				bytes[name] = unsafe.StringData(name)
				seen++
			}
			reg := visor.NewRegistry()
			for _, f := range wf.Functions {
				reg.RegisterNative(f.Name, func(_ *asstd.Env, ctx visor.FuncContext) error {
					bare := visor.FuncContext{Workflow: ctx.Workflow, Function: ctx.Function, Instance: ctx.Instance,
						Instances: ctx.Instances, Stage: ctx.Stage, Params: ctx.Params}
					for _, dep := range deps[ctx.Function] {
						for i := range instances[dep] {
							check(ctx, func() string { return ctx.SlotFrom(dep, i) },
								func() string { return visor.Slot(dep, i, ctx.Function, ctx.Instance) },
								func() string { return bare.SlotFrom(dep, i) })
						}
					}
					for _, child := range children[ctx.Function] {
						for j := range instances[child] {
							check(ctx, func() string { return ctx.SlotTo(child, j) },
								func() string { return visor.Slot(ctx.Function, ctx.Instance, child, j) },
								func() string { return bare.SlotTo(child, j) })
						}
					}
					return nil
				})
			}
			v := visor.New(reg)
			if err := v.RegisterWorkflow(wf); err != nil {
				t.Fatal(err)
			}
			o := visor.DefaultRunOptions()
			o.CostScale = 0
			o.BufHeapSize = 1 << 20
			if _, err := v.RunWorkflow(wf, o); err != nil {
				t.Fatal(err)
			}
			want := 0
			for f, ds := range deps {
				for _, d := range ds {
					want += 2 * instances[d] * instances[f] // asked at both ends
				}
			}
			if seen != want || want == 0 {
				t.Errorf("%d slot names checked, want %d", seen, want)
			}
		})
	}
}

// TestInstanceRecordsNotShared: a native body may keep its *asstd.Env
// after it returns, and an attempt abandoned at a deadline still runs in
// its env, so the record an attempt runs in is never handed to another
// attempt or run. The body here keeps every env it is given and faults
// on its first attempt; the retry and a second run must each get a
// record of their own, and a kept env must read as it did when its
// attempt ended.
func TestInstanceRecordsNotShared(t *testing.T) {
	type kept struct {
		env       *asstd.Env
		tr        asstd.Transport
		crossings uint64
	}
	var (
		all   []kept
		calls int
	)
	reg := visor.NewRegistry()
	reg.RegisterNative("keeper", func(env *asstd.Env, ctx visor.FuncContext) error {
		calls++
		if _, err := asstd.Now(env); err != nil { // one syscall: two crossings
			return err
		}
		all = append(all, kept{env, env.Transport(), env.Crossings()})
		if calls == 1 {
			panic("first attempt faults")
		}
		return nil
	})
	v := visor.New(reg)
	wf := &dag.Workflow{Name: "keeper", Functions: []dag.FuncSpec{{Name: "keeper"}}}
	if err := v.RegisterWorkflow(wf); err != nil {
		t.Fatal(err)
	}
	o := visor.DefaultRunOptions()
	o.CostScale = 0
	o.BufHeapSize = 1 << 20
	o.Retry = &faults.RetryPolicy{MaxRetries: 1}
	for run := range 2 {
		res, err := v.RunWorkflow(wf, o)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if want := 1 - run; res.Retries != want {
			t.Fatalf("run %d: %d retries, want %d", run, res.Retries, want)
		}
	}
	if len(all) != 3 {
		t.Fatalf("%d attempts ran the body, want 3", len(all))
	}
	for i, k := range all {
		for j, l := range all[:i] {
			if k.env == l.env || k.tr == l.tr {
				t.Fatalf("attempt %d ran in attempt %d's record", i, j)
			}
		}
		if k.env.FuncName != "keeper" || k.env.Transport() != k.tr || k.env.Crossings() != k.crossings {
			t.Errorf("attempt %d's kept env changed after it ended: %q, %d crossings (%d then)",
				i, k.env.FuncName, k.env.Crossings(), k.crossings)
		}
	}
	if all[0].crossings == 0 {
		t.Error("the body's syscall made no crossing")
	}
}
