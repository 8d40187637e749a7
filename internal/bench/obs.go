package bench

import (
	"fmt"
	"os"
	"time"

	"alloystack/internal/metrics"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// obsRuns is the per-arm sample count: enough for a stable p50 of the
// ~1 s python chain without making the cheap CI set crawl.
const obsRuns = 9

// Observability measures what the always-on telemetry plane costs. Two
// arms over the interpreter-tier function chain (5 Python functions,
// the representative serverless case):
//
//	off — the bare runtime path: RunWorkflow with no tracer and no
//	      histogram observation
//	on  — the full always-on path every production invocation takes:
//	      the run's own tracer from Telemetry.StartRun, the run itself,
//	      then ObserveRun (tail-sampling decision, histogram observation
//	      with exemplar, trace retention)
//
// The telemetry plane is built for always-on deployment, so the added
// p50 must stay under 2% — the headline acceptance number, reported in
// a note (a difference of two noisy numbers).
//
// A third, untimed phase points a tight SLO (objective 1ns, so every
// run burns budget) at the same workflow to demonstrate the anomaly
// capture path end to end: the breach transition must produce a
// capture directory with profiles and the flight dump.
func Observability(o Options) (*Result, error) {
	o = o.withDefaults()
	size := o.size(16 << 20)
	w := workloads.FunctionChain(5, size, "python")
	v := newAlloyVisor()

	// Input images are single-use (runs consume them), so every
	// invocation builds a fresh one outside the timed window.
	buildOpts := func(mutate func(*visor.RunOptions)) (visor.RunOptions, error) {
		ro := alloyOpts(o, mutate)
		img, err := workloads.BuildEmptyImage(true)
		if err != nil {
			return ro, err
		}
		ro.DiskImage = img
		return ro, nil
	}

	tel := visor.NewTelemetry(visor.TelemetryConfig{
		SamplerSeed: 1,
		Clock:       o.Clock,
	})

	var off, on []time.Duration
	offRuns, onRuns := newRunTotal(), newRunTotal()
	for i := 0; i < obsRuns; i++ {
		// Arm 1: telemetry off.
		ro, err := buildOpts(nil)
		if err != nil {
			return nil, err
		}
		start := o.now()
		res, err := v.RunWorkflow(w, ro)
		if err != nil {
			return nil, fmt.Errorf("off run %d: %w", i, err)
		}
		off = append(off, o.since(start))
		sumRuns(offRuns, res)

		// Arm 2: telemetry on — the timed window is the whole always-on
		// path, exactly as the watchdog drives it per invocation.
		ro, err = buildOpts(nil)
		if err != nil {
			return nil, err
		}
		start = o.now()
		tracer := tel.StartRun(w.Name)
		ro.Trace = tracer
		res, rerr := v.RunWorkflow(w, ro)
		d := o.since(start)
		tel.ObserveRun(w.Name, tracer, d, rerr)
		if rerr != nil {
			return nil, fmt.Errorf("on run %d: %w", i, rerr)
		}
		on = append(on, d)
		sumRuns(onRuns, res)
	}
	retained, dropped := tel.Retained()

	// Phase 3 (untimed): drive the anomaly-capture path. A 1ns objective
	// makes every run burn error budget, so the first observation
	// transitions the SLO into breach and snapshots profiles plus the
	// triggering run's flight dump.
	capDir := o.ArtifactsDir
	if capDir == "" {
		tmp, err := os.MkdirTemp("", "asbench-obs-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		capDir = tmp
	} else if err := os.MkdirAll(capDir, 0o755); err != nil {
		return nil, err
	}
	capTel := visor.NewTelemetry(visor.TelemetryConfig{
		SamplerSeed:       1,
		SLO:               metrics.SLOConfig{Objective: time.Nanosecond},
		CaptureDir:        capDir,
		CaptureCPUProfile: 50 * time.Millisecond,
		Clock:             o.Clock,
	})
	ro, err := buildOpts(nil)
	if err != nil {
		return nil, err
	}
	tracer := capTel.StartRun(w.Name)
	ro.Trace = tracer
	_, rerr := v.RunWorkflow(w, ro)
	capTel.ObserveRun(w.Name, tracer, time.Second, rerr)
	if rerr != nil {
		return nil, fmt.Errorf("capture run: %w", rerr)
	}
	capTel.WaitCaptures()
	captures, lastCap := capTel.Captures()
	if captures == 0 {
		return nil, fmt.Errorf("SLO breach produced no anomaly capture in %s", capDir)
	}

	offSum, onSum := metrics.Summarize(off), metrics.Summarize(on)
	overhead := 100 * (float64(onSum.P50) - float64(offSum.P50)) / float64(offSum.P50)

	r := newResult("obs", "always-on telemetry: histogram + tail-sampled tracing overhead (python chain x5)")
	r.Header = []string{"arm", "p50 (ms)", "p99 (ms)"}
	r.Rows = [][]string{
		{"telemetry off", ms(offSum.P50), ms(offSum.P99)},
		{"telemetry on (always-on path)", ms(onSum.P50), ms(onSum.P99)},
	}
	r.alloyCounts("off", offRuns)
	r.alloyCounts("on", onRuns)
	// retained/dropped stay out of the counts: the sampler hashes trace
	// IDs numbered by a process-wide sequence, so whether the 1% base
	// rate keeps one depends on what ran earlier in the process.
	r.count("anomaly_captures", captures)
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d runs per arm; on-arm window = StartRun + run + ObserveRun (the watchdog's path)", obsRuns),
		fmt.Sprintf("telemetry overhead p50: %+.1f%% (target < 2%%; a difference of two noisy p50s)", overhead),
		fmt.Sprintf("tail sampler: %d retained, %d dropped (failed/tail always keep; base rate 1%%)", retained, dropped),
		fmt.Sprintf("anomaly capture: %d capture(s); latest in %s (cpu.pprof, heap.pprof, flight.txt, trace.json)", captures, lastCap))
	if o.ArtifactsDir != "" {
		r.Notes = append(r.Notes, fmt.Sprintf("capture artifacts kept in %s", capDir))
	}
	return emit(o, r), nil
}
