package visor_test

import (
	"testing"

	"alloystack/internal/dag"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
	"alloystack/internal/xfer"
)

// TestRunWorkflowAllocBudget bounds what one in-process invoke allocates.
// BENCHMARK.json gates allocs_per_invoke at 1 % (about 3 allocations on
// chain-refpass), so a refactor that adds a closure or a map per
// function fails the perf pipeline; this fails in tier-1 first. The
// workloads are the benchmark's own: an 8-link, 64 KiB refpass
// FunctionChain and NoOps, untraced at CostScale=0.
//
// Allocations per invoke, measured with this test (go1.24, linux/amd64;
// identical at -cpu 1, 2 and 4):
//
//	                 parent 527f3bf   this commit   this commit, -race
//	function-chain        377              318              368
//	no-ops                 67               57               59
//
// The budget is the parent's figure: the invoke path may not allocate
// more than it did before it was taken apart into steps. It cannot sit
// at this commit's own figure because the race detector's bookkeeping
// adds allocations and the same test runs under -race.
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
		{workloads.FunctionChain(8, 64<<10, "native"), 377},
		{workloads.NoOps(), 67},
	} {
		run := func() {
			if _, err := v.RunWorkflow(tc.wf, opts); err != nil {
				t.Fatalf("%s: %v", tc.wf.Name, err)
			}
		}
		run() // admission verdicts and lazy tables are paid once
		got := testing.AllocsPerRun(200, run)
		t.Logf("%s: %.0f allocs/invoke (budget %.0f)", tc.wf.Name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.0f allocs/invoke, budget %.0f", tc.wf.Name, got, tc.budget)
		}
	}
}
