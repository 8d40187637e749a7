package gateway

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestInvokeAllocBudget bounds what one Gateway.Invoke("noop") over a
// real watchdog allocates, both ends of the hop counted: the gateway's
// routing and framing, the watchdog's frame server and its run. The
// frontdoor-noop benchmark gates allocs_per_invoke and
// alloc_kib_per_invoke at 1 %, so a change that puts HTTP, a context or
// a buffer per request back on the hop fails here first.
//
// Per invoke, measured with this test (go1.24, linux/amd64, one P):
//
//	                        allocs      KiB
//	HTTP+JSON hop            171.5     16.2
//	invoke frames             77.5      7.7
//	no run-wide cancel ctx    72.3      7.2
//
// Under -race the frame hop reads 75-76 allocations and 7.6 KiB. Each
// budget is the current figure plus a small slack.
func TestInvokeAllocBudget(t *testing.T) {
	b := startBackend(t)
	g, err := New(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	run := func() {
		if _, err := g.Invoke("noop"); err != nil {
			t.Fatal(err)
		}
	}
	for range 20 { // the pooled connection and the run's lazy tables first
		run()
	}
	allocBudget, kibBudget := 77.0, 9.0
	if raceBuild() {
		allocBudget = 81
	}
	const n = 500
	var before, after runtime.MemStats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.ReadMemStats(&before)
	for range n {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
	t.Logf("%.1f allocs/invoke (budget %.0f), %.2f KiB/invoke (budget %.0f)", allocs, allocBudget, kib, kibBudget)
	if allocs > allocBudget {
		t.Errorf("%.1f allocs/invoke, budget %.0f", allocs, allocBudget)
	}
	if kib > kibBudget {
		t.Errorf("%.2f KiB/invoke, budget %.0f", kib, kibBudget)
	}
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
