package visor_test

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"alloystack/internal/blockdev"
	"alloystack/internal/dag"
	"alloystack/internal/fatfs"
	"alloystack/internal/pool"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
	"alloystack/internal/xfer"
)

// TestRunWorkflowAllocBudget bounds what one in-process invoke allocates,
// in allocations and in bytes. BENCHMARK.json gates allocs_per_invoke
// and alloc_kib_per_invoke at 1 % (about 2 allocations on chain-refpass),
// so a refactor that adds a closure or a map per function, or a buffer
// per guest instance, fails the perf pipeline; this fails in tier-1
// first. The workloads are the benchmark's own, registered as the
// benchmark registers them, untraced at CostScale=0: an 8-link, 64 KiB
// FunctionChain over refpass and over the file transport (spilling
// through a formatted image), NoOps, and WordCount(2, python) served
// warm from a pool over 256 KiB of text, its loop restocking the pool
// after every invoke as the benchmark's does.
//
// Per invoke, measured with this test (go1.24, linux/amd64; the
// allocation counts are identical at -cpu 1, 2 and 4, and under -race
// but for the file chain's, which reads 15 more there: xfer.Path's
// []byte(slot) and the FAT chain walk's appends escape to the heap in a
// race build):
//
//	                     fmt-free  compiled  recycled guest  no run-wide  recycled WFD
//	                     dispatch    plan    memory, WASI    cancel ctx     backing
//	function-chain          219       199       199            194           194     87 KiB
//	function-chain file                         478            472           472    123 KiB
//	no-ops                   50        47        47             42            42    3.0 KiB
//	word-count python                           265            260           258   24.7 KiB
//
// The compiled plan moved the DAG levelling, the registry lookups and
// the admission walk from every invoke to RegisterWorkflow. Recycled
// guest memory and file read-backs (mem.Take/Park) took WordCount from
// 1,945 KiB and 422 allocations, and the file chain from 571 KiB.
// Recycling the heap backing of each destroyed warm clone through the
// same free list (mem.Space.Release) took WordCount from 433 KiB; the
// native chains' spaces escape, so their figures did not move. Each
// budget is the current figure plus a small slack: five allocations
// (an added closure or map per function, eight on the chain, still
// fails) and about 10 % of the bytes (a guest memory or a spill
// read-back made afresh per instance again fails).
func TestRunWorkflowAllocBudget(t *testing.T) {
	reg := visor.NewRegistry()
	workloads.RegisterAll(reg)
	v := visor.New(reg)
	base := visor.DefaultRunOptions()
	base.CostScale = 0
	base.Transfer = xfer.KindRefpass

	fileOpts := base
	fileOpts.Transfer = xfer.KindFile
	disk := blockdev.NewMemDisk(16 << 20)
	if _, err := fatfs.Format(disk, fatfs.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	fileOpts.DiskImage = disk

	wc := workloads.WordCount(2, "python")
	spec, ok := workloads.PoolSpecFor(wc, 256<<10, 0)
	if !ok {
		t.Fatal("no pool spec for WordCount(2, python)")
	}
	p, err := pool.New(spec, pool.Config{Min: 1, Max: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	wcOpts := base
	wcOpts.Pool, wcOpts.WarmStart = p, true

	fileAllocs := 477.0
	if raceBuild() {
		fileAllocs = 492
	}
	for _, tc := range []struct {
		name   string
		wf     *dag.Workflow
		opts   visor.RunOptions
		runs   int
		idle   func()
		allocs float64
		kib    float64
	}{
		{"function-chain", workloads.FunctionChain(8, 64<<10, "native"), base, 200, nil, 199, 95},
		{"function-chain file", workloads.FunctionChain(8, 64<<10, "native"), fileOpts, 200, nil, fileAllocs, 136},
		{"no-ops", workloads.NoOps(), base, 200, nil, 47, 4},
		{"word-count python", wc, wcOpts, 20, func() { p.Maintain(time.Now()) }, 265, 27},
	} {
		if err := v.RegisterWorkflow(tc.wf); err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := v.RunWorkflow(tc.wf, tc.opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if tc.opts.WarmStart && !res.WarmStart {
				t.Fatalf("%s: the pool missed", tc.name)
			}
			if tc.idle != nil {
				tc.idle()
			}
		}
		for range 5 { // lazy tables, the pool's stock and the free list fill first
			run()
		}
		allocs, kib := perInvoke(tc.runs, run)
		t.Logf("%s: %.0f allocs/invoke (budget %.0f), %.1f KiB/invoke (budget %.0f)",
			tc.name, allocs, tc.allocs, kib, tc.kib)
		if allocs > tc.allocs {
			t.Errorf("%s: %.0f allocs/invoke, budget %.0f", tc.name, allocs, tc.allocs)
		}
		if kib > tc.kib {
			t.Errorf("%s: %.1f KiB/invoke, budget %.0f", tc.name, kib, tc.kib)
		}
	}
}

// perInvoke runs run n times on one P, as testing.AllocsPerRun does, and
// returns the mean allocations and KiB per run from the runtime's
// Mallocs and TotalAlloc counters.
func perInvoke(n int, run func()) (allocs, kib float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
