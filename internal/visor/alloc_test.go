package visor_test

import (
	"testing"

	"alloystack/internal/dag"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
	"alloystack/internal/xfer"
)

// TestRunWorkflowAllocBudget bounds what one in-process invoke allocates.
// BENCHMARK.json gates allocs_per_invoke at 1 % (about 2 allocations on
// chain-refpass), so a refactor that adds a closure or a map per
// function fails the perf pipeline; this fails in tier-1 first. The
// workloads are the benchmark's own: an 8-link, 64 KiB refpass
// FunctionChain and NoOps, registered as the benchmark registers them,
// untraced at CostScale=0.
//
// Allocations per invoke, measured with this test (go1.24, linux/amd64;
// identical at -cpu 1, 2 and 4, and under -race):
//
//	                 fmt-free untraced dispatch   compiled plan
//	function-chain              219                    199
//	no-ops                       50                     47
//
// The compiled plan moved the DAG levelling, the registry lookups and
// the admission walk from every invoke to RegisterWorkflow. The budget
// is the current figure plus five allocations of slack: an added
// closure or map per function (eight on the chain) still fails here.
func TestRunWorkflowAllocBudget(t *testing.T) {
	reg := visor.NewRegistry()
	workloads.RegisterAll(reg)
	v := visor.New(reg)
	opts := visor.DefaultRunOptions()
	opts.CostScale = 0
	opts.Transfer = xfer.KindRefpass

	for _, tc := range []struct {
		wf     *dag.Workflow
		budget float64
	}{
		{workloads.FunctionChain(8, 64<<10, "native"), 204},
		{workloads.NoOps(), 52},
	} {
		if err := v.RegisterWorkflow(tc.wf); err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := v.RunWorkflow(tc.wf, opts); err != nil {
				t.Fatalf("%s: %v", tc.wf.Name, err)
			}
		}
		run() // lazy tables are paid once
		got := testing.AllocsPerRun(200, run)
		t.Logf("%s: %.0f allocs/invoke (budget %.0f)", tc.wf.Name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.0f allocs/invoke, budget %.0f", tc.wf.Name, got, tc.budget)
		}
	}
}
