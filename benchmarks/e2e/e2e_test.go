package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"alloystack/internal/trace"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

func TestMain(m *testing.M) {
	configureProcess()
	os.Exit(m.Run())
}

func shuffled(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestFloorIsNearestRankP10(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{{100, 10}, {101, 11}, {1000, 100}, {109, 11}, {110, 11}} {
		in := shuffled(tc.n)
		got, err := floor(in, minFloorSamples)
		if err != nil || got != tc.want {
			t.Errorf("floor of 1..%d = %v, %v; want %v", tc.n, got, err, tc.want)
		}
		if in[0] == 1 && in[1] == 2 && in[2] == 3 {
			t.Errorf("floor sorted its argument in place")
		}
	}
}

func TestFloorRefusesFewSamples(t *testing.T) {
	if _, err := floor(shuffled(99), minFloorSamples); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("floor of 99 samples: err = %v, want errTooFewSamples", err)
	}
	if _, err := floor(nil, 0); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("floor of no samples: err = %v, want errTooFewSamples", err)
	}
	// The set-up floor is taken over >=30 cycles: rank ceil(3.0) = 3.
	if got, err := floor(shuffled(30), 30); err != nil || got != 3 {
		t.Fatalf("floor of 1..30 = %v, %v; want 3", got, err)
	}
}

func TestClampSub(t *testing.T) {
	if got := clampSub(5, 3); got != 2 {
		t.Errorf("clampSub(5,3) = %v", got)
	}
	if got := clampSub(3, 5); got != 0 {
		t.Errorf("clampSub(3,5) = %v, want 0: a ladder difference never goes negative", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := quartileSpread(vals); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	if got := median(vals); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
}

func TestSetupLoopBounds(t *testing.T) {
	type run struct {
		min, max int
		minDur   time.Duration
		each     time.Duration
		want     int
	}
	for _, tc := range []run{
		{min: 30, max: 400, minDur: 0, want: 30},                                                // cycle minimum binds
		{min: 3, max: 7, minDur: time.Hour, want: 7},                                            // cap binds
		{min: 2, max: 400, minDur: 20 * time.Millisecond, each: 5 * time.Millisecond, want: -1}, // duration binds
		{min: 1, max: 1, want: 1},                                                               // traced runs set up once
	} {
		lasts := 0
		start := time.Now()
		times, err := setupLoop(tc.min, tc.max, tc.minDur, func(last bool) (time.Duration, error) {
			if lasts > 0 {
				t.Fatalf("cycle ran after the one flagged last")
			}
			if last {
				lasts++
			}
			time.Sleep(tc.each)
			return tc.each, nil
		})
		if err != nil || lasts != 1 {
			t.Fatalf("%+v: err %v, %d cycles flagged last", tc, err, lasts)
		}
		if tc.want >= 0 && len(times) != tc.want {
			t.Errorf("%+v: ran %d cycles, want %d", tc, len(times), tc.want)
		}
		if tc.want < 0 && (len(times) <= tc.min || time.Since(start) < tc.minDur) {
			t.Errorf("%+v: ran %d cycles in %v, want more than the minimum and at least minDur", tc, len(times), time.Since(start))
		}
	}
	boom := errors.New("boom")
	if _, err := setupLoop(3, 3, 0, func(bool) (time.Duration, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Errorf("setupLoop swallowed the cycle's error: %v", err)
	}
}

// allocSystem allocates a known amount per invoke and a lot everywhere
// else.
type allocSystem struct{ keep [][]byte }

const (
	allocObjects = 10
	allocSize    = 4096
)

func (a *allocSystem) churn() {
	for i := 0; i < 2000; i++ {
		a.keep = append(a.keep[:0], make([]byte, 64<<10))
	}
}

func (a *allocSystem) invoke(*trace.Span, bool) observation {
	for i := 0; i < allocObjects; i++ {
		a.keep = append(a.keep[:0], make([]byte, allocSize))
	}
	return observation{latency: time.Microsecond}
}
func (a *allocSystem) idle()                    {}
func (a *allocSystem) counters() layerCounters  { return layerCounters{} }
func (a *allocSystem) lastProgramTrace() []byte { return nil }
func (a *allocSystem) close()                   {}

func TestAllocAccountingCoversOnlyTheMeasuredLoop(t *testing.T) {
	sys := &allocSystem{keep: make([][]byte, 0, 1)}
	sys.churn() // set-up
	warm := measure(sys, 0, 50, 50, nil)
	sys.churn() // between phases
	timed := measure(sys, 0, 500, 500, nil)
	sys.churn() // a later (traced) phase
	for name, ph := range map[string]phaseResult{"warm-up": warm, "timed": timed} {
		n := float64(len(ph.latencies))
		objs, bytes := float64(ph.mallocs)/n, float64(ph.bytes)/n
		if objs < allocObjects || objs > allocObjects+1 {
			t.Errorf("%s: %.2f objects per invoke, want %d (set-up and other phases must not leak in)", name, objs, allocObjects)
		}
		if bytes < allocObjects*allocSize || bytes > allocObjects*allocSize*1.05 {
			t.Errorf("%s: %.0f bytes per invoke, want about %d", name, bytes, allocObjects*allocSize)
		}
	}
}

func optionsOf(t *testing.T, s system) visor.RunOptions {
	switch sys := s.(type) {
	case *frontdoor:
		return sys.wd.OptionsFor(noopWorkflow)
	case *chain:
		return sys.opts
	case *wordCount:
		return sys.opts
	}
	t.Fatalf("unknown system %T", s)
	return visor.RunOptions{}
}

// TestNoInjectedCost: no calibrated time.Sleep may run inside a timed
// window. core, loader, pool and visor.runVM sleep only when their
// CostScale is positive, blockdev.Shaped only when a read cap is set.
func TestNoInjectedCost(t *testing.T) {
	if got := runtime.GOMAXPROCS(0); got != 1 {
		t.Errorf("GOMAXPROCS = %d, want 1", got)
	}
	if workloads.FatfsReadShapeBps != 0 {
		t.Errorf("workloads.FatfsReadShapeBps = %d, want 0", workloads.FatfsReadShapeBps)
	}
	for _, w := range allWorkloads {
		s, err := w.setup(1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if cs := optionsOf(t, s).CostScale; cs != 0 {
			t.Errorf("%s: RunOptions.CostScale = %v, want 0", w.name, cs)
		}
		if wc, ok := s.(*wordCount); ok {
			if cs := wcPoolSpec(wc.wf, wc.dev).Core.CostScale; cs != 0 {
				t.Errorf("%s: pool template Core.CostScale = %v, want 0", w.name, cs)
			}
		}
		s.close()
	}
	w, _ := findWorkload("chain-file")
	s, err := w.setup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ph := measure(s, 0, 200, 200, nil)
	if ph.firstErr != nil {
		t.Fatal(ph.firstErr)
	}
	if fl, err := floor(ph.latencies, minFloorSamples); err != nil || fl >= 5*time.Millisecond {
		t.Errorf("chain-file floor over 200 invokes = %v, %v; a floor of 5 ms or more means something slept", fl, err)
	}
}

// TestSmoke drives every workload through every phase with short
// phases: the traced run of each (which also runs an untraced phase and
// the ladder), and the end-to-end run of one.
func TestSmoke(t *testing.T) {
	for _, w := range allWorkloads {
		rr, err := runWorkload(w, 7, smokePlan(true), true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if rr.checkErr != nil {
			t.Errorf("%s traced: output check: %v", w.name, rr.checkErr)
		}
		vals, err := perLayerValues(rr)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, d := range perLayer {
			if v, ok := vals[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v, measured %v", w.name, d.name, v, ok)
			}
		}
		for _, zero := range []string{"gateway.failovers", "gateway.shed", "scan.rejects"} {
			if vals[zero] != 0 {
				t.Errorf("%s: %s = %v, want 0", w.name, zero, vals[zero])
			}
		}
		wantCopies := map[string]float64{"chain-refpass": 0, "chain-file": 14}
		if want, ok := wantCopies[w.name]; ok && vals["xfer.copies"] != want {
			t.Errorf("%s: xfer.copies = %v, want %v", w.name, vals["xfer.copies"], want)
		}
		if w.name != "frontdoor-noop" && vals["visor.attributed_share"] < 0.85 {
			t.Errorf("%s: visor.attributed_share = %v, want >= 0.85", w.name, vals["visor.attributed_share"])
		}
		if rr.harness == nil || len(rr.harness.Spans()) < harnessSpansPerInvoke*len(rr.tracedRun.obs) {
			t.Errorf("%s: harness recorded too few spans", w.name)
		}
		if len(rr.program) == 0 {
			t.Errorf("%s: no program trace kept from the traced phase", w.name)
		}
	}

	w, _ := findWorkload("chain-refpass")
	rr, err := runWorkload(w, 7, smokePlan(false), false)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := endToEndValues(rr)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if v, ok := vals[d.name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v, measured %v; want a positive value", d.name, v, ok)
		}
	}
	if vals["ok_share"] != 1 {
		t.Errorf("ok_share = %v, want 1", vals["ok_share"])
	}
}

func TestWordCountReference(t *testing.T) {
	if got := wordStarts([]byte("  ab c\n\td\r e")); got != 4 {
		t.Errorf("wordStarts = %d, want 4", got)
	}
	chunks := wcChunks([]byte("abcdefg"), 2)
	if string(chunks[0]) != "abc" || string(chunks[1]) != "defg" {
		t.Errorf("wcChunks = %q, want the remainder in the last chunk", chunks)
	}
	// A word cut by the chunk boundary counts once in each chunk, as the
	// guest mapper sees it.
	if got := wordStarts(chunks[0]) + wordStarts(chunks[1]); got != 2 {
		t.Errorf("split word counted %d times, want 2", got)
	}
}

func TestJudge(t *testing.T) {
	lat := endToEnd[0] // 10% bound, lower is better
	same := judge(lat, []float64{1.00, 1.01, 0.99}, []float64{1.02, 1.00, 1.01})
	if !same.ok {
		t.Errorf("sets 1%% apart judged %+v, want ok", same)
	}
	apart := judge(lat, []float64{1.00, 1.01, 0.99}, []float64{1.07, 1.06, 1.08})
	if apart.ok {
		t.Errorf("sets 7%% apart judged ok: the gap may be half the bound at most")
	}
	stray := judge(lat, []float64{1.00, 1.00, 1.00, 1.00, 1.15}, []float64{1.00, 1.00, 1.00, 1.00, 1.00})
	if stray.ok {
		t.Errorf("a run 15%% off its set median judged ok")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in this
// package from drifting apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmarks/e2e" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, implemented %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: declared %+v, implemented %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: declared %+v, implemented %+v", i, got, d)
		}
	}
	if p := planFor(float64(b.RunSeconds), false); p.timedDur != time.Duration(b.RunSeconds)*time.Second {
		t.Errorf("run_seconds %d gives a timed phase of %v", b.RunSeconds, p.timedDur)
	}
}
