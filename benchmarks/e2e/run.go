package main

import (
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"alloystack/internal/trace"
)

// plan sizes the phases of one run. The defaults come from -seconds;
// -smoke and the tests shrink them.
type plan struct {
	// Set-up phase: repeat the whole set-up cycle until both minimums
	// hold, never past maxCycles.
	setupMinCycles, setupMaxCycles int
	setupMinDur                    time.Duration
	// Warm-up: at least warmDur and at least warmInvokes.
	warmDur     time.Duration
	warmInvokes int
	// Timed phase (tracing off) and traced phase: at least the duration
	// and at least minInvokes, never past maxInvokes.
	timedDur, tracedDur    time.Duration
	minInvokes, maxInvokes int
	// floorSamples is the fewest samples a floor is taken over, and
	// rungSamples how many each ladder rung collects.
	floorSamples, rungSamples int
}

// maxSamples bounds one phase's invokes; measure preallocates its
// sample slices to the phase's bound.
const maxSamples = 1 << 19

// planFor splits -seconds: an end-to-end run spends all of it in the
// timed phase after ≥30 set-up cycles; a traced run sets up once and
// splits it between an untraced reference phase and the traced phase.
func planFor(seconds float64, traced bool) plan {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	p := plan{
		setupMinCycles: 30, setupMaxCycles: 400, setupMinDur: 2 * time.Second,
		warmDur: time.Second, warmInvokes: 20,
		timedDur:   d(1),
		minInvokes: minFloorSamples, maxInvokes: maxSamples,
		floorSamples: minFloorSamples, rungSamples: 200,
	}
	if traced {
		p.setupMinCycles, p.setupMaxCycles, p.setupMinDur = 1, 1, 0
		p.timedDur, p.tracedDur = d(0.4), d(0.4)
		// Harness spans are kept in memory until exit: bound them.
		p.maxInvokes = 5000
	}
	return p
}

// smokePlan checks the harness end to end in a few seconds: three set-up
// cycles, half-second phases, floors over whatever was sampled.
func smokePlan(traced bool) plan {
	const phase = 500 * time.Millisecond
	p := plan{
		setupMinCycles: 3, setupMaxCycles: 3,
		warmDur: phase / 5, warmInvokes: 2,
		timedDur: phase, minInvokes: 3, maxInvokes: 5000,
		floorSamples: 3, rungSamples: 5,
	}
	if traced {
		p.setupMinCycles, p.setupMaxCycles = 1, 1
		p.tracedDur = phase
	}
	return p
}

// setupLoop repeats cycle — one full set-up, timed by cycle itself —
// until at least minCycles ran and minDur passed, stopping at maxCycles.
func setupLoop(minCycles, maxCycles int, minDur time.Duration, cycle func(last bool) (time.Duration, error)) ([]time.Duration, error) {
	var times []time.Duration
	start := time.Now()
	for {
		n := len(times) + 1
		// The caller keeps the last cycle's system, so the cycle must
		// know it is the last before it runs: decide from what is known
		// now, which can overshoot minDur by at most one cycle.
		last := n >= maxCycles || (n >= minCycles && time.Since(start) >= minDur)
		d, err := cycle(last)
		if err != nil {
			return times, fmt.Errorf("set-up cycle %d: %w", n, err)
		}
		times = append(times, d)
		if last {
			return times, nil
		}
	}
}

// phaseResult is one measured closed loop.
type phaseResult struct {
	latencies []time.Duration
	memPeak   uint64
	// obs keeps the full observations of a traced phase, which is short
	// enough to hold them; the layer metrics are computed from them.
	obs      []observation
	failed   int
	firstErr error
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure drives the closed loop: one client, one invoke at a time, the
// next sent only when the previous reply arrived. Heap counters are read
// around the loop and nowhere else, so what set-up, warm-up and other
// phases allocate never reaches the per-invoke figures. tracer, when
// non-nil, turns the program's tracing on for every invoke and receives
// the harness's own spans.
func measure(sys system, dur time.Duration, minInvokes, maxInvokes int, tracer *trace.Tracer) phaseResult {
	var res phaseResult
	// Sized up front so growing the sample slices is not charged to the
	// program under test.
	res.latencies = make([]time.Duration, 0, maxInvokes)
	if tracer != nil {
		res.obs = make([]observation, 0, maxInvokes)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()
	for n := 0; n < maxInvokes && (n < minInvokes || time.Since(start) < dur); n++ {
		root := tracer.Start("invoke", trace.CatInvoke)
		root.SetAttr("invoke_id", n)
		o := sys.invoke(root, tracer != nil)
		root.End()
		if o.err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = o.err
			}
		}
		res.latencies = append(res.latencies, o.latency)
		if o.memPeak > res.memPeak {
			res.memPeak = o.memPeak
		}
		if tracer != nil {
			res.obs = append(res.obs, o)
		}
		sys.idle()
	}
	res.wall = time.Since(start)
	res.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.bytes = after.TotalAlloc - before.TotalAlloc
	res.gcCycles = after.NumGC - before.NumGC
	return res
}

// runResult is everything one process measured.
type runResult struct {
	workload   string
	seed       int64
	traced     bool
	plan       plan
	setupTimes []time.Duration
	timed      phaseResult
	tracedRun  phaseResult
	// countersBefore and counters bracket the traced phase.
	countersBefore layerCounters
	counters       layerCounters
	ladder         *ladderResult
	harness        *trace.Tracer
	program        []byte
	checkErr       error
}

// verifier is implemented by systems whose output check needs a
// reference run made by hand once the system is up.
type verifier interface{ verify() error }

// runWorkload executes every phase of one run of w.
func runWorkload(w workload, seed int64, p plan, traced bool) (*runResult, error) {
	rr := &runResult{workload: w.name, seed: seed, traced: traced, plan: p}

	// Set-up phase. A cycle is everything from nothing to the first
	// successful reply; tearing the previous system down is not timed.
	var sys system
	times, err := setupLoop(p.setupMinCycles, p.setupMaxCycles, p.setupMinDur, func(last bool) (time.Duration, error) {
		start := time.Now()
		s, err := w.setup(seed)
		if err != nil {
			return 0, err
		}
		o := s.invoke(nil, false)
		d := time.Since(start)
		if o.err != nil {
			s.close()
			return 0, fmt.Errorf("first invoke: %w", o.err)
		}
		if last {
			sys = s
		} else {
			s.close()
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	rr.setupTimes = times
	defer sys.close()
	sys.idle()

	if v, ok := sys.(verifier); ok {
		if err := v.verify(); err != nil {
			return nil, err
		}
		sys.idle()
	}

	// Warm-up, then collect what it left behind.
	warm := measure(sys, p.warmDur, p.warmInvokes, p.maxInvokes, nil)
	if warm.firstErr != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	runtime.GC()

	rr.timed = measure(sys, p.timedDur, p.minInvokes, p.maxInvokes, nil)
	if traced {
		rr.harness = trace.New("e2e-harness", trace.Options{})
		runtime.GC()
		rr.countersBefore = sys.counters()
		rr.tracedRun = measure(sys, p.tracedDur, p.minInvokes, p.maxInvokes, rr.harness)
		rr.program = sys.lastProgramTrace()
		rr.counters = sys.counters()
		rr.ladder, err = runLadder(w, seed, rr.harness, p)
		if err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
	}
	switch {
	case rr.timed.firstErr != nil:
		rr.checkErr = rr.timed.firstErr
	case rr.tracedRun.firstErr != nil:
		rr.checkErr = rr.tracedRun.firstErr
	case sys.counters().scanRejects != 0:
		rr.checkErr = errors.New("admission scan rejected a guest image")
	}
	return rr, nil
}
