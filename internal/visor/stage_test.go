package visor_test

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/visor"
)

// TestStageInstancePlacement pins where a stage's instances run. The
// stage's last instance runs on the goroutine that called RunWorkflow,
// the others each on a goroutine of their own. A one-instance stage of
// a run no context bounds starts no goroutine at all: its body runs on
// the caller's and sees the goroutine count taken just before the call.
// The instances of a larger stage can be cancelled, so core.WFD.RunCtx
// runs each body on a goroutine it starts from the instance's.
func TestStageInstancePlacement(t *testing.T) {
	var (
		mu     sync.Mutex
		ran    []uint64 // the goroutine each instance ran its attempt from
		inside int      // runtime.NumGoroutine() in the one-instance body
	)
	reg := visor.NewRegistry()
	reg.RegisterNative("one", func(env *asstd.Env, ctx visor.FuncContext) error {
		inside = runtime.NumGoroutine()
		ran = append(ran, instanceGoroutine())
		return nil
	})
	reg.RegisterNative("three", func(env *asstd.Env, ctx visor.FuncContext) error {
		mu.Lock()
		defer mu.Unlock()
		ran = append(ran, instanceGoroutine())
		return nil
	})
	v := visor.New(reg)
	o := visor.DefaultRunOptions()
	o.CostScale = 0
	o.BufHeapSize = 1 << 20
	one := &dag.Workflow{Name: "one", Functions: []dag.FuncSpec{{Name: "one"}}}
	three := &dag.Workflow{Name: "three", Functions: []dag.FuncSpec{{Name: "three", Instances: 3}}}
	for _, w := range []*dag.Workflow{one, three} {
		if err := v.RegisterWorkflow(w); err != nil {
			t.Fatal(err)
		}
	}
	caller, _ := goroutine()

	before := runtime.NumGoroutine()
	if _, err := v.RunWorkflow(one, o); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != caller {
		t.Errorf("one-instance stage ran on goroutines %v, want the caller's %d", ran, caller)
	}
	if inside != before {
		t.Errorf("one-instance body saw %d goroutines, %d before the call", inside, before)
	}

	ran = nil
	if _, err := v.RunWorkflow(three, o); err != nil {
		t.Fatal(err)
	}
	onCaller := 0
	for _, id := range ran {
		if id == caller {
			onCaller++
		}
	}
	if len(ran) != 3 || onCaller != 1 {
		t.Errorf("three-instance stage ran on goroutines %v: %d on the caller's %d, want 1", ran, onCaller, caller)
	}
}

// instanceGoroutine is the goroutine a function body's instance runs
// its attempt from: the body's own, or the one core.WFD.RunCtx started
// it from.
func instanceGoroutine() uint64 {
	id, stack := goroutine()
	const runCtx = "created by alloystack/internal/core.(*WFD).RunCtx in goroutine "
	if _, from, ok := strings.Cut(stack, runCtx); ok {
		return parseID(from)
	}
	return id
}

// goroutine returns the calling goroutine's ID, from the header line of
// its stack trace ("goroutine 42 [running]:"), and the trace itself.
func goroutine() (uint64, string) {
	buf := make([]byte, 16<<10)
	stack := string(buf[:runtime.Stack(buf, false)])
	return parseID(strings.TrimPrefix(stack, "goroutine ")), stack
}

// parseID parses the goroutine ID that s starts with.
func parseID(s string) uint64 {
	end := strings.IndexFunc(s, func(r rune) bool { return r < '0' || r > '9' })
	id, err := strconv.ParseUint(s[:end], 10, 64)
	if err != nil {
		panic("goroutine ID: " + err.Error())
	}
	return id
}
