// Package bench is the experiment harness: one function per table and
// figure of the paper's evaluation (§8), each regenerating the same rows
// or series the paper reports. cmd/asbench drives it from the command
// line; bench_test.go drives it from `go test -bench`.
//
// Scaling: the paper's testbed is a 64-core Xeon with inputs up to
// 300 MB. Options.Scale (default 1/16) scales every data size so the
// suite completes on a laptop; Options.CostScale scales the injected
// platform costs (Firecracker boots, module relocation latencies) —
// 1.0 reproduces the calibrated values, smaller values speed up smoke
// runs without changing who wins, 0 switches them off (what the tests
// run at). EXPERIMENTS.md records the scale used.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"alloystack/internal/baselines"
	"alloystack/internal/blockdev"
	"alloystack/internal/core"
	"alloystack/internal/dag"
	"alloystack/internal/netstack"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies the paper's data sizes (default 1/16).
	Scale float64
	// CostScale multiplies injected platform costs: 1.0 is calibrated,
	// 0 is off. It has no default — 0 means 0.
	CostScale float64
	// Iterations per configuration (default 1; medians reported if >1).
	Iterations int
	// Out receives the rendered report (default io.Discard).
	Out io.Writer
	// ArtifactsDir, when set, keeps on-disk experiment byproducts
	// (e.g. the crashresume journal) there instead of a temp dir, so
	// CI can upload them.
	ArtifactsDir string
	// Clock supplies the time source every measurement loop reads.
	// Injected so asvet's wallclock analyzer can prove the package has
	// exactly one wall-clock site (wallNow, the default).
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0 / 16
	}
	if o.Iterations == 0 {
		o.Iterations = 1
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Clock == nil {
		o.Clock = wallNow
	}
	return o
}

// now reads the injected clock.
func (o Options) now() time.Time { return o.Clock() }

// since measures elapsed time on the injected clock.
func (o Options) since(start time.Time) time.Duration { return o.Clock().Sub(start) }

// size scales a paper-stated byte count, keeping it 8-byte aligned and
// at least 4 KiB so every workload stays meaningful.
func (o Options) size(paperBytes int64) int64 {
	s := int64(float64(paperBytes) * o.Scale)
	if s < 4096 {
		s = 4096
	}
	return s &^ 7
}

// Report is the aligned-text-table view of an experiment result.
// Experiments build a typed *Result; Report carries only presentation
// and is assembled by Result.Report().
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// A row can be wider than the header; cells beyond the last
			// header column get no padding instead of an index panic.
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteString("\n")
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// emit renders the result's table view to the options' writer and
// returns the typed result.
func emit(o Options, r *Result) *Result {
	fmt.Fprintln(o.Out, r.Report().String())
	return r
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// us renders a duration in microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

// median returns the median of samples (destructive sort).
func median(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// humanBytes renders a byte count the way the paper labels its axes.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// ---- shared execution helpers --------------------------------------------

// newAlloyVisor builds a visor with the full workload registry.
func newAlloyVisor() *visor.Visor {
	reg := visor.NewRegistry()
	workloads.RegisterAll(reg)
	return visor.New(reg)
}

// alloyOpts builds AlloyStack run options for an experiment.
func alloyOpts(o Options, mutate func(*visor.RunOptions)) visor.RunOptions {
	ro := visor.DefaultRunOptions()
	ro.CostScale = o.CostScale
	ro.BufHeapSize = 2 << 30
	if mutate != nil {
		mutate(&ro)
	}
	return ro
}

// runAlloy executes one AlloyStack invocation, taking the median of
// o.Iterations runs. build prepares fresh per-run options (disk images
// are single-use because runs truncate/consume them).
func runAlloy(o Options, v *visor.Visor, w *dag.Workflow, build func() (visor.RunOptions, error)) (*visor.RunResult, error) {
	var best *visor.RunResult
	samples := make([]time.Duration, 0, o.Iterations)
	for i := 0; i < o.Iterations; i++ {
		ro, err := build()
		if err != nil {
			return nil, err
		}
		res, err := v.RunWorkflow(w, ro)
		if err != nil {
			return nil, err
		}
		samples = append(samples, res.E2E)
		if best == nil || res.E2E < best.E2E {
			best = res
		}
	}
	best.E2E = median(samples)
	return best, nil
}

// runBaseline executes one baseline invocation (median of iterations).
func runBaseline(o Options, sys baselines.System, lang string, w *dag.Workflow,
	inputs map[string][]byte) (*baselines.Result, error) {
	r, err := baselines.NewRunner(baselines.Config{
		System:    sys,
		Costs:     baselines.DefaultCosts(),
		CostScale: o.CostScale,
		Language:  lang,
		Inputs:    inputs,
	})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var best *baselines.Result
	samples := make([]time.Duration, 0, o.Iterations)
	for i := 0; i < o.Iterations; i++ {
		res, err := r.RunWorkflow(w)
		if err != nil {
			return nil, err
		}
		samples = append(samples, res.E2E)
		if best == nil || res.E2E < best.E2E {
			best = res
		}
	}
	best.E2E = median(samples)
	return best, nil
}

// freshHub and nextBenchIP hand experiments unique virtual-network
// resources for WFDs that must load the socket module.
func freshHub() *netstack.Hub { return netstack.NewHub() }

var benchIPCounter uint32

func nextBenchIP() netstack.Addr {
	benchIPMu.Lock()
	defer benchIPMu.Unlock()
	benchIPCounter++
	return netstack.IP(10, 200, byte(benchIPCounter>>8), byte(benchIPCounter))
}

var benchIPMu sync.Mutex

// newWFD instantiates a bare WFD for tracing-style experiments.
func newWFD(o Options, ip netstack.Addr, hub *netstack.Hub) (*core.WFD, error) {
	return core.Instantiate(core.Options{
		OnDemand:    true,
		CostScale:   0,
		BufHeapSize: 64 << 20,
		DiskImage:   blockdev.NewMemDisk(8 << 20),
		Hub:         hub,
		IP:          ip,
	})
}
