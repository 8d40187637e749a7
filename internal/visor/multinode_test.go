package visor

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/kvstore"
)

// chainRegistry registers a chain implementation that forwards a counter,
// incrementing it per hop, so cross-node continuity is checkable.
func chainRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.RegisterNative("hop", func(env *asstd.Env, ctx FuncContext) error {
		idx := hopIndex(t, ctx.Function)
		length := int(ctx.ParamInt("length", 2))
		if idx == 0 {
			b, err := asstd.NewBuffer(env, Slot(ctx.Function, 0, fmt.Sprintf("hop-%d", idx+1), 0), 8)
			if err != nil {
				return err
			}
			b.Bytes()[0] = 1
			return nil
		}
		in, err := asstd.FromSlot(env, Slot(fmt.Sprintf("hop-%d", idx-1), 0, ctx.Function, 0))
		if err != nil {
			return err
		}
		count := in.Bytes()[0] + 1
		in.Free()
		if idx == length-1 {
			return asstd.Printf(env, "hops=%d", count)
		}
		out, err := asstd.NewBuffer(env, Slot(ctx.Function, 0, fmt.Sprintf("hop-%d", idx+1), 0), 8)
		if err != nil {
			return err
		}
		out.Bytes()[0] = count
		return nil
	})
	return r
}

func hopIndex(t *testing.T, name string) int {
	t.Helper()
	var idx int
	if _, err := fmt.Sscanf(name[strings.LastIndexByte(name, '-')+1:], "%d", &idx); err != nil {
		t.Fatalf("bad hop name %s", name)
	}
	return idx
}

func hopChain(length int) *dag.Workflow {
	return dag.Chain("hops", length, func(i int) string {
		return fmt.Sprintf("hop-%d", i)
	}, map[string]string{"length": fmt.Sprint(length)})
}

func TestSplitAt(t *testing.T) {
	w := hopChain(6)
	front, back, err := SplitAt(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Functions) != 3 || len(back.Functions) != 3 {
		t.Fatalf("split sizes = %d/%d", len(front.Functions), len(back.Functions))
	}
	// hop-3 lost its dependency on hop-2 (now fed by an imported slot).
	for _, f := range back.Functions {
		if f.Name == "hop-3" && len(f.DependsOn) != 0 {
			t.Fatalf("hop-3 deps = %v", f.DependsOn)
		}
	}
	if _, _, err := SplitAt(w, 0); err == nil {
		t.Fatal("cut 0 accepted")
	}
	if _, _, err := SplitAt(w, 6); err == nil {
		t.Fatal("cut beyond last stage accepted")
	}
}

func TestCrossSlots(t *testing.T) {
	w := hopChain(6)
	slots, err := CrossSlots(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 1 || slots[0] != Slot("hop-2", 0, "hop-3", 0) {
		t.Fatalf("cross slots = %v", slots)
	}
	// Fan edge: 2-instance producer feeding 3-instance consumer.
	fan := &dag.Workflow{
		Name: "fan",
		Functions: []dag.FuncSpec{
			{Name: "a", Instances: 2},
			{Name: "b", DependsOn: []string{"a"}, Instances: 3},
		},
	}
	slots, err = CrossSlots(fan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 6 {
		t.Fatalf("fan cross slots = %d, want 6", len(slots))
	}
}

// TestTwoNodeSplitRun runs a 6-hop chain split across two "nodes" (two
// visors), moving the boundary slot through a real TCP kvstore hop.
func TestTwoNodeSplitRun(t *testing.T) {
	w := hopChain(6)
	front, back, err := SplitAt(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := CrossSlots(w, 3)
	if err != nil {
		t.Fatal(err)
	}

	node1 := New(chainRegistry(t))
	node2 := New(chainRegistry(t))

	// Node 1 runs the front subgraph and exports the boundary slots.
	ro1 := DefaultRunOptions()
	ro1.CostScale = 0
	ro1.BufHeapSize = 8 << 20
	ro1.ExportSlots = cross
	res1, err := node1.RunWorkflow(front, ro1)
	if err != nil {
		t.Fatalf("front: %v", err)
	}
	if len(res1.Exports) != 1 {
		t.Fatalf("exports = %v", res1.Exports)
	}

	// Boundary data crosses nodes through the external store (real TCP).
	store, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cli, err := kvstore.Dial(store.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for slot, data := range res1.Exports {
		if err := cli.Set(slot, data); err != nil {
			t.Fatal(err)
		}
	}
	imported := map[string][]byte{}
	for _, slot := range cross {
		data, err := cli.Get(slot)
		if err != nil {
			continue
		}
		imported[slot] = data
	}

	// Node 2 imports the slots and runs the back subgraph.
	var out bytes.Buffer
	ro2 := DefaultRunOptions()
	ro2.CostScale = 0
	ro2.BufHeapSize = 8 << 20
	ro2.ImportSlots = imported
	ro2.Stdout = &out
	if _, err := node2.RunWorkflow(back, ro2); err != nil {
		t.Fatalf("back: %v", err)
	}
	// 6 hops: head writes 1, five increments -> 6.
	if out.String() != "hops=6" {
		t.Fatalf("cross-node result = %q, want hops=6", out.String())
	}
}

func TestSingleNodeEquivalence(t *testing.T) {
	// The same chain unsplit must produce the same answer.
	var out bytes.Buffer
	v := New(chainRegistry(t))
	ro := DefaultRunOptions()
	ro.CostScale = 0
	ro.BufHeapSize = 8 << 20
	ro.Stdout = &out
	if _, err := v.RunWorkflow(hopChain(6), ro); err != nil {
		t.Fatal(err)
	}
	if out.String() != "hops=6" {
		t.Fatalf("single-node result = %q", out.String())
	}
}

func TestExportSkipsUnusedCandidates(t *testing.T) {
	// Exporting candidate slots the workload never registered is not an
	// error; they are simply absent from the result.
	r := NewRegistry()
	r.RegisterNative("one", func(env *asstd.Env, ctx FuncContext) error {
		b, err := asstd.NewBuffer(env, "present", 4)
		if err != nil {
			return err
		}
		copy(b.Bytes(), "yes!")
		return nil
	})
	v := New(r)
	ro := DefaultRunOptions()
	ro.CostScale = 0
	ro.BufHeapSize = 4 << 20
	ro.ExportSlots = []string{"present", "never-written"}
	res, err := v.RunWorkflow(&dag.Workflow{
		Name: "w", Functions: []dag.FuncSpec{{Name: "one"}},
	}, ro)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exports) != 1 || string(res.Exports["present"]) != "yes!" {
		t.Fatalf("exports = %v", res.Exports)
	}
}

// TestRetryFaultTolerance: a function that faults on its first attempt
// succeeds on retry, with intermediate data intact (§3.1).
func TestRetryFaultTolerance(t *testing.T) {
	var attempts atomic.Int32
	r := NewRegistry()
	r.RegisterNative("seed", func(env *asstd.Env, ctx FuncContext) error {
		b, err := asstd.NewBuffer(env, "state", 5)
		if err != nil {
			return err
		}
		copy(b.Bytes(), "alive")
		return nil
	})
	r.RegisterNative("flaky", func(env *asstd.Env, ctx FuncContext) error {
		if attempts.Add(1) == 1 {
			panic("transient bug") // before consuming any slot
		}
		b, err := asstd.FromSlot(env, "state")
		if err != nil {
			return err
		}
		defer b.Free()
		return asstd.Printf(env, "read %s after retry", b.Bytes())
	})
	v := New(r)
	var out bytes.Buffer
	ro := DefaultRunOptions()
	ro.CostScale = 0
	ro.BufHeapSize = 4 << 20
	ro.Retry = &faults.RetryPolicy{MaxRetries: 2}
	ro.Stdout = &out
	w := &dag.Workflow{
		Name: "w",
		Functions: []dag.FuncSpec{
			{Name: "seed"},
			{Name: "flaky", DependsOn: []string{"seed"}},
		},
	}
	res, err := v.RunWorkflow(w, ro)
	if err != nil {
		t.Fatalf("retry run: %v", err)
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d", res.Retries)
	}
	if out.String() != "read alive after retry" {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	r := NewRegistry()
	r.RegisterNative("always", func(env *asstd.Env, ctx FuncContext) error {
		panic("permanent bug")
	})
	v := New(r)
	ro := DefaultRunOptions()
	ro.CostScale = 0
	ro.BufHeapSize = 4 << 20
	ro.Retry = &faults.RetryPolicy{MaxRetries: 2}
	w := &dag.Workflow{Name: "w", Functions: []dag.FuncSpec{{Name: "always"}}}
	_, err := v.RunWorkflow(w, ro)
	if err == nil || !strings.Contains(err.Error(), "function fault") {
		t.Fatalf("err = %v", err)
	}
}

func TestOrdinaryErrorsNotRetried(t *testing.T) {
	var attempts atomic.Int32
	r := NewRegistry()
	r.RegisterNative("erring", func(env *asstd.Env, ctx FuncContext) error {
		attempts.Add(1)
		return errors.New("business-logic failure")
	})
	v := New(r)
	ro := DefaultRunOptions()
	ro.CostScale = 0
	ro.BufHeapSize = 4 << 20
	ro.Retry = &faults.RetryPolicy{MaxRetries: 3}
	w := &dag.Workflow{Name: "w", Functions: []dag.FuncSpec{{Name: "erring"}}}
	if _, err := v.RunWorkflow(w, ro); err == nil {
		t.Fatal("error swallowed")
	}
	if attempts.Load() != 1 {
		t.Fatalf("ordinary error retried %d times", attempts.Load())
	}
}
