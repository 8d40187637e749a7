// Command e2e is the repository's end-to-end invoke benchmark: four
// workloads, each a closed loop of one client on one P with every
// injected cost switched off, gated on floor latency and exact counts.
//
//	go run ./benchmarks/e2e -workload chain-file -seed 1 -seconds 12 -trace 0
//	go run ./benchmarks/e2e -workload chain-file -seed 1 -seconds 12 -trace 1
//	go run ./benchmarks/e2e -selfcheck 5
//
// With -trace 0 the last line of standard output carries the end-to-end
// metrics, with -trace 1 the per-layer metrics; README.md in this
// directory explains every name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"alloystack/internal/metrics"
	"alloystack/internal/trace"
	"alloystack/internal/workloads"
)

// configureProcess pins the process to the measurement regime the
// estimators were validated on: one P, so the client, the HTTP servers
// and the workflow's goroutines run one at a time and nothing queues
// behind a second core's scheduling; and no disk-read shaping, the one
// injected cost that is a package variable instead of a CostScale.
func configureProcess() {
	runtime.GOMAXPROCS(1)
	workloads.FatfsReadShapeBps = 0
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: frontdoor-noop, chain-refpass, chain-file or wc-py-warm")
		seed      = flag.Int64("seed", 1, "input seed (changes wc-py-warm's text; the other workloads are input-free)")
		seconds   = flag.Float64("seconds", 12, "seconds the run measures")
		traceMode = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced phase and the layer ladder")
		traceOut  = flag.String("trace-out", "", "where the traced run writes its Chrome trace_event JSON (default .bench_build/e2e/trace-<workload>.json)")
		smoke     = flag.Bool("smoke", false, "0.5 s phases and small sample minimums: checks the harness, measures nothing")
		selfcheck = flag.Int("selfcheck", 0, "run every workload as two interleaved sets of N fresh processes and compare them against the bounds")
	)
	flag.Parse()
	configureProcess()

	if *selfcheck > 0 {
		if err := runSelfcheck(os.Stdout, *selfcheck, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2e: unknown -workload %q; have:\n", *name)
		for _, w := range allWorkloads {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	traced := *traceMode != 0
	p := planFor(*seconds, traced)
	if *smoke {
		p = smokePlan(traced)
	}
	rr, err := runWorkload(w, *seed, p, traced)
	if err != nil {
		fatal(err)
	}
	if traced {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "e2e", "trace-"+w.name+".json")
		}
		if err := writeTraces(path, rr); err != nil {
			fatal(err)
		}
		fmt.Printf("trace   %s (program's own last traced invoke: %s)\n", path, programTracePath(path))
	}
	if err := report(os.Stdout, rr); err != nil {
		fatal(err)
	}
	if rr.checkErr != nil {
		fatal(fmt.Errorf("output check failed: %w", rr.checkErr))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(1)
}

// fingerprint is the environment a result was measured in, printed with
// every result so two runs that disagree can be told apart by where and
// how they ran before anyone guesses at the code.
type fingerprint struct {
	Build      metrics.BuildInfo  `json:"build"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      int                `json:"trace"`
	PhaseSecs  map[string]float64 `json:"phase_seconds"`
	Samples    map[string]int     `json:"samples"`
}

func fingerprintOf(rr *runResult) fingerprint {
	fp := fingerprint{
		Build:      metrics.CurrentBuild(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   rr.workload,
		Seed:       rr.seed,
		PhaseSecs:  map[string]float64{"timed": rr.timed.wall.Seconds()},
		Samples:    map[string]int{"setup_cycles": len(rr.setupTimes), "timed": len(rr.timed.latencies)},
	}
	var setup time.Duration
	for _, d := range rr.setupTimes {
		setup += d
	}
	fp.PhaseSecs["setup"] = setup.Seconds()
	if rr.traced {
		fp.Trace = 1
		fp.PhaseSecs["traced"] = rr.tracedRun.wall.Seconds()
		fp.Samples["traced"] = len(rr.tracedRun.latencies)
	}
	return fp
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric of the run by name with its unit, the
// environment fingerprint, and last the result line.
func report(out io.Writer, rr *runResult) error {
	defs := endToEnd
	var vals, info map[string]float64
	var err error
	if rr.traced {
		defs = perLayer
		vals, err = perLayerValues(rr)
	} else {
		vals, err = endToEndValues(rr)
		info = driverValues(rr.timed)
	}
	if err != nil {
		return err
	}
	line := resultLine{
		Correct:   rr.checkErr == nil,
		Attempted: len(rr.timed.latencies) + len(rr.tracedRun.latencies),
		Failed:    rr.timed.failed + rr.tracedRun.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(out, "metric  %-32s %16.6f %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, d := range perLayer {
		if v, ok := info[d.name]; ok {
			fmt.Fprintf(out, "info    %-32s %16.6f %s\n", d.name, v, d.unit)
		}
	}
	fp, err := json.Marshal(fingerprintOf(rr))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "env     %s\n", fp)
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", last)
	return nil
}

func programTracePath(path string) string {
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "-program" + ext
}

// writeTraces writes the harness's spans — one "invoke" span per traced
// request with the public call it wrapped beneath it, and the ladder's
// rungs — as Chrome trace_event JSON, and beside it the span tree the
// program itself exported for the last traced request.
func writeTraces(path string, rr *runResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc, err := trace.ChromeJSON(rr.harness)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return err
	}
	if rr.program != nil {
		return os.WriteFile(programTracePath(path), rr.program, 0o644)
	}
	return nil
}
