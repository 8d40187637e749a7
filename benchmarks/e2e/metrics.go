package main

import (
	"time"
)

// metricDef declares one metric; BENCHMARK.json lists the same names,
// units, directions and bounds (TestBenchmarkJSONMatches holds the two
// together) and README.md says what each means and should move.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by; per-layer metrics have none.
	bound float64
}

// The end-to-end set is the same on every workload. Only the floor and
// the counts are gated: medians, means and rates drift 2-4x more than a
// 10% bound between identical runs on a shared 2-vCPU host, so they are
// reported under driver.* and gate nothing.
var endToEnd = []metricDef{
	{"invoke_floor_ms", "ms", "lower", 0.10},
	{"allocs_per_invoke", "count", "lower", 0.01},
	{"alloc_kib_per_invoke", "KiB", "lower", 0.01},
	{"wfd_mem_peak_kib", "KiB", "lower", 0.01},
	{"ok_share", "share", "higher", 0.001},
	// Set-up gets the widest bound the driver allows: the sub-millisecond
	// set-ups are a handful of loopback connects and goroutine hand-offs,
	// and their floor strays up to ~15% between identical processes.
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "gateway.self_us", unit: "us", better: "lower"},
	{name: "gateway.failovers", unit: "count", better: "lower"},
	{name: "gateway.shed", unit: "count", better: "lower"},
	{name: "cluster.route_us", unit: "us", better: "lower"},
	{name: "visor.watchdog_self_us", unit: "us", better: "lower"},
	{name: "sched.admit_us", unit: "us", better: "lower"},
	{name: "sched.queue_wait_us", unit: "us", better: "lower"},
	{name: "visor.run_self_us", unit: "us", better: "lower"},
	{name: "visor.attributed_share", unit: "share", better: "higher"},
	{name: "core.boot_us", unit: "us", better: "lower"},
	{name: "core.boot_destroy_us", unit: "us", better: "lower"},
	{name: "core.crossings", unit: "count", better: "lower"},
	{name: "loader.load_us", unit: "us", better: "lower"},
	{name: "pool.fork_us", unit: "us", better: "lower"},
	{name: "pool.hit_share", unit: "share", better: "higher"},
	{name: "pool.template_boot_ms", unit: "ms", better: "lower"},
	{name: "mem.cow_breaks", unit: "count", better: "lower"},
	{name: "asvm.compute_us", unit: "us", better: "lower"},
	{name: "asvm.interp_ns_per_step", unit: "ns", better: "lower"},
	{name: "asvm.aot_ns_per_step", unit: "ns", better: "lower"},
	{name: "scan.verify_us", unit: "us", better: "lower"},
	{name: "scan.rejects", unit: "count", better: "lower"},
	{name: "xfer.transfer_us", unit: "us", better: "lower"},
	{name: "xfer.copies", unit: "count", better: "lower"},
	{name: "xfer.bytes", unit: "bytes", better: "lower"},
	{name: "xfer.slots_reused", unit: "count", better: "higher"},
	{name: "fatfs.read_input_us", unit: "us", better: "lower"},
	{name: "fatfs.write_64k_us", unit: "us", better: "lower"},
	{name: "fatfs.read_64k_us", unit: "us", better: "lower"},
	{name: "blockdev.reads", unit: "count", better: "lower"},
	{name: "blockdev.writes", unit: "count", better: "lower"},
	{name: "blockdev.bytes", unit: "bytes", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "driver.invoke_p50_ms", unit: "ms", better: "lower"},
	{name: "driver.invoke_p99_ms", unit: "ms", better: "lower"},
	{name: "driver.invokes_per_s", unit: "1/s", better: "higher"},
	{name: "driver.cpu_ms_per_invoke", unit: "ms", better: "lower"},
	{name: "driver.gc_cycles_per_kinvoke", unit: "count", better: "lower"},
	{name: "driver.samples", unit: "count", better: "higher"},
}

// harnessSpansPerInvoke: the "invoke" root and the public call under it.
const harnessSpansPerInvoke = 2

func endToEndValues(rr *runResult) (map[string]float64, error) {
	t := rr.timed
	n := float64(len(t.latencies))
	fl, err := floor(t.latencies, rr.plan.floorSamples)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"invoke_floor_ms":      millis(fl),
		"allocs_per_invoke":    float64(t.mallocs) / n,
		"alloc_kib_per_invoke": float64(t.bytes) / 1024 / n,
		"wfd_mem_peak_kib":     float64(t.memPeak) / 1024,
		"ok_share":             (n - float64(t.failed)) / n,
	}
	setup, err := floor(rr.setupTimes, rr.plan.setupMinCycles)
	if err != nil {
		return nil, err
	}
	vals["setup_s"] = setup.Seconds()
	return vals, nil
}

// driverValues are what a user feels but the host disturbs.
func driverValues(t phaseResult) map[string]float64 {
	sorted := sortedCopy(t.latencies)
	n := float64(len(sorted))
	return map[string]float64{
		"driver.invoke_p50_ms":         millis(percentile(sorted, 50)),
		"driver.invoke_p99_ms":         millis(percentile(sorted, 99)),
		"driver.invokes_per_s":         n / t.wall.Seconds(),
		"driver.cpu_ms_per_invoke":     millis(t.cpu) / n,
		"driver.gc_cycles_per_kinvoke": float64(t.gcCycles) / n * 1000,
		"driver.samples":               n,
	}
}

func perLayerValues(rr *runResult) (map[string]float64, error) {
	obs := rr.tracedRun.obs
	n := float64(len(obs))
	min := rr.plan.floorSamples
	var ferr error
	// floorOf is the floor, in microseconds, of one duration field.
	floorOf := func(get func(observation) time.Duration) float64 {
		samples := make([]time.Duration, len(obs))
		for i, o := range obs {
			samples[i] = get(o)
		}
		fl, err := floor(samples, min)
		if err != nil && ferr == nil {
			ferr = err
		}
		return micros(fl)
	}
	// meanOf averages a per-invoke count; the counts repeat exactly, so
	// the mean is the count.
	meanOf := func(get func(observation) float64) float64 {
		var sum float64
		for _, o := range obs {
			sum += get(o)
		}
		return sum / n
	}

	vals := driverValues(rr.timed)
	untraced, err := floor(rr.timed.latencies, min)
	if err != nil {
		return nil, err
	}
	tracedFloor := floorOf(func(o observation) time.Duration { return o.latency })
	e2eFloor := floorOf(func(o observation) time.Duration { return o.e2e })
	vals["trace.overhead_share"] = (tracedFloor - micros(untraced)) / micros(untraced)
	vals["trace.spans"] = harnessSpansPerInvoke + meanOf(func(o observation) float64 { return float64(o.programSpans) })
	vals["visor.attributed_share"] = e2eFloor / tracedFloor
	vals["visor.run_self_us"] = floorOf(func(o observation) time.Duration { return clampSub(o.e2e, o.boot+o.stages) })
	vals["core.boot_us"] = floorOf(func(o observation) time.Duration { return o.boot })
	vals["core.crossings"] = meanOf(func(o observation) float64 { return float64(o.crossings) })
	vals["sched.queue_wait_us"] = floorOf(func(o observation) time.Duration { return o.queueWait })
	vals["asvm.compute_us"] = floorOf(func(o observation) time.Duration { return clampSub(o.stages, o.transfer+o.readInput) })
	vals["xfer.transfer_us"] = floorOf(func(o observation) time.Duration { return o.transfer })
	vals["fatfs.read_input_us"] = floorOf(func(o observation) time.Duration { return o.readInput })
	vals["xfer.copies"] = meanOf(func(o observation) float64 { return float64(o.xfer.Copies) })
	vals["xfer.bytes"] = meanOf(func(o observation) float64 { return float64(o.xfer.Bytes) })
	vals["xfer.slots_reused"] = meanOf(func(o observation) float64 { return float64(o.xfer.SlotsReused) })
	if ferr != nil {
		return nil, ferr
	}

	// Counters the layers keep: deltas across the traced phase per
	// invoke, totals for the ones that must stay 0.
	before, after := rr.countersBefore, rr.counters
	vals["gateway.failovers"] = float64(after.gatewayFailovers)
	vals["gateway.shed"] = float64(after.gatewayShed)
	vals["scan.rejects"] = float64(after.scanRejects)
	vals["blockdev.reads"] = float64(after.devReads-before.devReads) / n
	vals["blockdev.writes"] = float64(after.devWrites-before.devWrites) / n
	vals["blockdev.bytes"] = float64(after.devBytes-before.devBytes) / n
	vals["mem.cow_breaks"] = float64(after.cowBreaks)
	vals["pool.template_boot_ms"] = after.pool.TemplateBoot
	vals["pool.hit_share"], vals["pool.fork_us"] = 0, 0
	hits, misses := after.pool.Hits-before.pool.Hits, after.pool.Misses-before.pool.Misses
	if hits+misses > 0 {
		vals["pool.hit_share"] = float64(hits) / float64(hits+misses)
		fork, err := floor(after.poolForkTimes[len(before.poolForkTimes):], min)
		if err != nil {
			return nil, err
		}
		vals["pool.fork_us"] = micros(fork)
	}

	l := rr.ladder
	vals["gateway.self_us"] = micros(clampSub(l.postGateway, l.postWatchdog))
	vals["visor.watchdog_self_us"] = micros(clampSub(l.postWatchdog, l.visorInvoke))
	vals["cluster.route_us"] = micros(l.route)
	vals["sched.admit_us"] = micros(l.admit)
	vals["core.boot_destroy_us"] = micros(l.bootDestroy)
	vals["loader.load_us"] = micros(l.load)
	vals["fatfs.write_64k_us"] = micros(l.fatWrite)
	vals["fatfs.read_64k_us"] = micros(l.fatRead)
	vals["scan.verify_us"] = micros(l.scanVerify)
	vals["asvm.interp_ns_per_step"] = l.interpNsPerStep
	vals["asvm.aot_ns_per_step"] = l.aotNsPerStep
	return vals, nil
}
