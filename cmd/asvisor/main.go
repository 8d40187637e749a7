// Command asvisor runs an AlloyStack node: the watchdog HTTP server plus
// the built-in benchmark function registry, executing workflows described
// by JSON configuration files.
//
// Usage:
//
//	asvisor -listen 127.0.0.1:8080 -workflows ./configs
//	curl -X POST http://127.0.0.1:8080/invoke/word-count
//
// Each JSON file in -workflows registers one workflow (see internal/dag
// for the schema); the built-in registry provides the paper's benchmark
// functions in native, C and Python tiers. Input-reading workflows get a
// fresh FAT disk image with synthetic input data per invocation, sized
// by -input-size.
//
// Chaos mode injects deterministic faults into every invocation:
//
//	asvisor -chaos 'panic=wc-map:2,kvdrop=5' -chaos-seed 7 -max-retries 3
//
// Gateway mode turns the binary into the cluster front end instead of a
// node: it polls each backend's /cluster advertisement, routes by damped
// rendezvous hash, and pre-warms the ring's top choice per workflow:
//
//	asvisor -gateway 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083 -listen 127.0.0.1:8080
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"alloystack/internal/cluster"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/gateway"
	"alloystack/internal/journal"
	"alloystack/internal/metrics"
	"alloystack/internal/pool"
	"alloystack/internal/sched"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "watchdog (or gateway) listen address")
	gw := flag.String("gateway", "", "run as the cluster gateway over this comma-separated backend list instead of a node")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "gateway mode: health/membership poll interval")
	shardBudget := flag.Int("shard-budget", 0, "gateway mode: per-workflow concurrent token budget (0 = unlimited)")
	nodeID := flag.String("node-id", "", "stable node identity advertised on /cluster (default: the listen address)")
	dir := flag.String("workflows", "", "directory of workflow JSON configs")
	inputSize := flag.Int64("input-size", 4<<20, "synthetic input size for file-reading workflows")
	costScale := flag.Float64("cost-scale", 1.0, "injected platform-cost scale")
	chaos := flag.String("chaos", "", "fault-injection spec, e.g. 'panic=wc-map:2,kvdrop=5' (see internal/faults)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the fault plan and retry jitter")
	maxRetries := flag.Int("max-retries", 0, "per-instance retry budget for faulted functions (0 = default policy)")
	funcTimeout := flag.Duration("func-timeout", 0, "per-function-attempt timeout (0 = none)")
	deadline := flag.Duration("deadline", 0, "whole-invocation deadline (0 = none)")
	maxInflight := flag.Int64("max-inflight", 0, "cap on concurrently executing invocations; excess is shed with 429 (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "per-workflow admission queue depth; >0 queues requests over -max-inflight fairly instead of shedding them at once")
	journalDir := flag.String("journal", "", "directory for durable-run journals; enables crash-resume (asctl runs / resume)")
	warmPools := flag.Bool("warm-pools", false, "pre-boot warm snapshot/fork pools for Python-runtime workflows")
	poolMin := flag.Int("pool-min", 1, "minimum warm instances per pool")
	poolMax := flag.Int("pool-max", 4, "maximum warm instances per pool")
	traceSample := flag.Float64("trace-sample", 0.01, "base-rate trace retention probability for ordinary runs (failed and tail runs always keep; negative = off)")
	traceSeed := flag.Int64("trace-seed", 1, "seed for the deterministic trace-sampling draw")
	sloObjective := flag.Duration("slo-objective", 0, "per-request latency objective enabling SLO burn-rate tracking (0 = off)")
	sloTarget := flag.Float64("slo-target", 0.99, "fraction of requests that must meet -slo-objective")
	captureDir := flag.String("capture-dir", "", "directory for anomaly captures (profiles + flight recorder) on SLO breach")
	flag.Parse()

	if *gw != "" {
		runGateway(*listen, strings.Split(*gw, ","), *healthInterval, *shardBudget)
		return
	}

	var plan *faults.Plan
	if *chaos != "" {
		var err error
		plan, err = faults.ParseSpec(*chaos, *chaosSeed)
		if err != nil {
			fatal("bad -chaos spec: %v", err)
		}
		fmt.Printf("chaos plan active: %s\n", plan)
	}
	var retry *faults.RetryPolicy
	if *maxRetries > 0 {
		p := faults.DefaultRetryPolicy()
		p.MaxRetries = *maxRetries
		p.Seed = *chaosSeed
		retry = &p
	}

	reg := visor.NewRegistry()
	workloads.RegisterAll(reg)
	v := visor.New(reg)

	// Built-in workflows so the node is usable with no config directory.
	builtins := []*dag.Workflow{
		workloads.NoOps(),
		workloads.Pipe(1<<20, "native"),
		workloads.FunctionChain(5, 1<<20, "native"),
		workloads.WordCount(3, "native"),
		workloads.ParallelSorting(3, "native"),
	}
	for _, w := range builtins {
		if err := v.RegisterWorkflow(w); err != nil {
			fatal("register %s: %v", w.Name, err)
		}
	}
	if *dir != "" {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			fatal("read workflows dir: %v", err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(*dir, e.Name()))
			if err != nil {
				fatal("read %s: %v", e.Name(), err)
			}
			w, err := dag.Parse(data)
			if err != nil {
				fatal("parse %s: %v", e.Name(), err)
			}
			if err := v.RegisterWorkflow(w); err != nil {
				fatal("register %s: %v", w.Name, err)
			}
			fmt.Printf("registered workflow %q from %s\n", w.Name, e.Name())
		}
	}

	wd := visor.NewWatchdog(v)

	// The telemetry plane is always on for a node binary: bounded
	// histograms, tail-sampled tracing and — when -slo-objective is set —
	// SLO burn-rate watching with anomaly capture.
	wd.Telemetry = visor.NewTelemetry(visor.TelemetryConfig{
		SamplerSeed: *traceSeed,
		SampleRate:  *traceSample,
		SLO: metrics.SLOConfig{
			Objective: *sloObjective,
			Target:    *sloTarget,
		},
		CaptureDir: *captureDir,
	})

	// Durable runs: every invocation write-ahead-journals its stage
	// barriers, so a crashed node can resume committed work with
	// `asctl resume` instead of re-running the workflow from scratch.
	var store *journal.Store
	if *journalDir != "" {
		var err error
		store, err = journal.Open(*journalDir, journal.Options{})
		if err != nil {
			fatal("open journal %s: %v", *journalDir, err)
		}
		wd.Journal = store
		fmt.Printf("durable runs journaled in %s\n", *journalDir)
	}

	wd.OptionsFor = func(name string) visor.RunOptions {
		ro := visor.DefaultRunOptions()
		ro.CostScale = *costScale
		ro.Journal = store
		ro.Stdout = os.Stdout
		ro.Faults = plan
		ro.Retry = retry
		ro.FuncTimeout = *funcTimeout
		ro.Deadline = *deadline
		// Stage inputs for the workflows that read files.
		w, err := v.Workflow(name)
		if err != nil {
			return ro
		}
		needsPy := false
		for _, f := range w.Functions {
			if f.Language == "python" {
				needsPy = true
			}
		}
		for _, f := range w.Functions {
			switch f.Param("input", "") {
			case workloads.TextInputPath:
				if img, err := workloads.BuildTextImage(*inputSize, needsPy); err == nil {
					ro.DiskImage = img
				}
				return ro
			case workloads.BinInputPath:
				if img, err := workloads.BuildBinImage(*inputSize, needsPy); err == nil {
					ro.DiskImage = img
				}
				return ro
			}
		}
		if needsPy {
			if img, err := workloads.BuildEmptyImage(true); err == nil {
				ro.DiskImage = img
			}
		}
		return ro
	}

	// Admission control: one scheduler, with fair queues when
	// -max-queue is set and shed-at-the-limit when it is not.
	if *maxQueue > 0 || *maxInflight > 0 {
		depth := *maxQueue
		if depth == 0 {
			depth = -1 // no queue
		}
		wd.Sched = sched.New(sched.Config{MaxConcurrent: int(*maxInflight), MaxQueue: depth})
		defer wd.Sched.Close()
	}

	// Warm pools: the manager and builder are always wired so the node
	// can serve POST /pools/prewarm (the gateway's placement sweep);
	// -warm-pools additionally pre-boots a template per Python-runtime
	// workflow at startup so invocations fork from a snapshot instead of
	// cold-starting.
	mgr := pool.NewManager()
	wd.Pools = mgr
	defer mgr.StopAll()
	wd.PoolBuilder = func(w *dag.Workflow) (pool.Spec, pool.Config, bool) {
		spec, ok := workloads.PoolSpecFor(w, *inputSize, *costScale)
		return spec, pool.Config{Min: *poolMin, Max: *poolMax, Seed: *chaosSeed}, ok
	}
	if *warmPools {
		for _, name := range v.Workflows() {
			w, err := v.Workflow(name)
			if err != nil {
				continue
			}
			spec, ok := workloads.PoolSpecFor(w, *inputSize, *costScale)
			if !ok {
				continue
			}
			p, err := pool.New(spec, pool.Config{
				Min:  *poolMin,
				Max:  *poolMax,
				Seed: *chaosSeed,
			})
			if err != nil {
				fmt.Printf("warm pool %s: %v (serving cold)\n", name, err)
				continue
			}
			p.Start()
			mgr.Add(p)
			fmt.Printf("warm pool %q: %d instance(s) ready (template boot %.0f ms)\n",
				name, p.Stats().Warm, p.Stats().TemplateBoot)
		}
	}

	wd.NodeID = *nodeID
	addr, err := wd.Start(*listen)
	if err != nil {
		fatal("start watchdog: %v", err)
	}
	fmt.Printf("asvisor listening on http://%s (POST /invoke/{workflow})\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	wd.Stop()
}

// runGateway serves the cluster front end: health/membership polling
// over the backend list, rendezvous routing with pre-warm sweeps, and
// the /invoke, /cluster and /metrics surfaces.
func runGateway(listen string, backends []string, interval time.Duration, shardBudget int) {
	for i := range backends {
		backends[i] = strings.TrimSpace(backends[i])
	}
	g, err := gateway.New(backends...)
	if err != nil {
		fatal("gateway: %v", err)
	}
	g.Cluster = cluster.NewRouter(cluster.Config{ShardBudget: shardBudget})
	g.CheckHealth()
	g.StartHealthLoop(interval)
	addr, err := g.Start(listen)
	if err != nil {
		fatal("start gateway: %v", err)
	}
	fmt.Printf("asvisor gateway on http://%s (rendezvous routing over %d backend(s); POST /invoke/{workflow}, GET /cluster)\n",
		addr, len(backends))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	g.Stop()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asvisor: "+format+"\n", args...)
	os.Exit(1)
}
