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
//	                 parent 75a02c7   parent, -race   this commit   this commit, -race
//	function-chain        299              350             219               219
//	no-ops                 54               55              50                50
//
// The parent's -race margin was fmt's: the race detector drops a share
// of sync.Pool puts, so every fmt.Sprintf on the path (span names, slot
// names) paid for a fresh printer. Untraced dispatch now formats
// nothing, and the two columns agree. The budget is this commit's figure
// plus five allocations of slack: an added closure or map per function
// (eight on the chain) still fails here.
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
		{workloads.FunctionChain(8, 64<<10, "native"), 224},
		{workloads.NoOps(), 55},
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
