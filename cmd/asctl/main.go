// Command asctl is the AlloyStack CLI: validate and describe workflow
// configurations, and invoke workflows on a running asvisor node.
//
// Usage:
//
//	asctl validate workflow.json
//	asctl describe workflow.json
//	asctl scan workflow.json
//	asctl invoke -node 127.0.0.1:8080 word-count
//	asctl trace -node 127.0.0.1:8080 -o trace.json word-count
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"alloystack/internal/asvm"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/gateway"
	"alloystack/internal/journal"
	"alloystack/internal/pool"
	"alloystack/internal/scan"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "validate":
		cmdValidate(os.Args[2:])
	case "describe":
		cmdDescribe(os.Args[2:])
	case "scan":
		cmdScan(os.Args[2:])
	case "invoke":
		cmdInvoke(os.Args[2:])
	case "trace":
		cmdTrace(os.Args[2:])
	case "top":
		cmdTop(os.Args[2:])
	case "pools":
		cmdPools(os.Args[2:])
	case "cluster":
		cmdCluster(os.Args[2:])
	case "runs":
		cmdRuns(os.Args[2:])
	case "resume":
		cmdResume(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  asctl validate <workflow.json>   check a workflow configuration
  asctl describe <workflow.json>   print stages and instance counts
  asctl scan <workflow.json>       statically verify the workflow's guest images
  asctl invoke [-node host:port] [-timeout 30s] [-retries 0] <workflow>   invoke on a running asvisor
  asctl trace [-node host:port] [-o trace.json] <workflow>   invoke with tracing; write Chrome/Perfetto trace
  asctl trace [-node host:port] [-o trace.json] -id <trace-id>   fetch a tail-sampled trace retained by the node
  asctl top [-node host:port] [-interval 2s] [-once]   live dashboard: latency quantiles, SLO burn, pools, runs
  asctl pools [-node host:port]   show the node's warm-instance pools
  asctl cluster [-node host:port]   show a gateway's membership view, rendezvous rings and warm-hit rate (every asvisor -gateway serves it)
  asctl runs [-node host:port]    list journaled runs and their committed progress
  asctl resume [-node host:port] <run-id>   resume an unsealed run from its journal`)
	os.Exit(2)
}

func loadWorkflow(path string) *dag.Workflow {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("read %s: %v", path, err)
	}
	w, err := dag.Parse(data)
	if err != nil {
		fatal("parse %s: %v", path, err)
	}
	return w
}

func cmdValidate(args []string) {
	if len(args) != 1 {
		usage()
	}
	w := loadWorkflow(args[0])
	fmt.Printf("workflow %q: OK (%d functions, %d instances)\n",
		w.Name, len(w.Functions), w.TotalInstances())
}

func cmdDescribe(args []string) {
	if len(args) != 1 {
		usage()
	}
	w := loadWorkflow(args[0])
	stages, err := w.Stages()
	if err != nil {
		fatal("stages: %v", err)
	}
	fmt.Printf("workflow %q: %d functions in %d stages\n", w.Name, len(w.Functions), len(stages))
	for i, stage := range stages {
		var parts []string
		for _, f := range stage {
			lang := f.Language
			if lang == "" {
				lang = "native"
			}
			parts = append(parts, fmt.Sprintf("%s[x%d,%s]", f.Name, f.InstancesOf(), lang))
		}
		fmt.Printf("  stage %d: %s\n", i, strings.Join(parts, " "))
	}
	// Each dependency edge moves intermediate data through one of the
	// data plane's transports; the consumer's params (or the default
	// run configuration) pick which.
	opts := visor.DefaultRunOptions()
	printed := false
	for _, stage := range stages {
		for _, f := range stage {
			if len(f.DependsOn) == 0 {
				continue
			}
			if !printed {
				fmt.Println("  edges:")
				printed = true
			}
			kind := visor.EdgeTransfer(f.Params, opts)
			for _, dep := range f.DependsOn {
				fmt.Printf("    %s -> %s: %s\n", dep, f.Name, kind)
			}
		}
	}
}

// cmdScan runs the static ASVM verifier over every guest image the
// workflow would stage — the same check as-visor applies at admission —
// and prints the per-guest verdict: CFG blocks, proven worst-case stack
// depth and the host imports the code can reach.
func cmdScan(args []string) {
	if len(args) != 1 {
		usage()
	}
	w := loadWorkflow(args[0])
	allow := scan.WASIAllowlist()
	rejected := 0
	seen := make(map[*asvm.Program]bool)
	for _, f := range w.Functions {
		ctx := visor.FuncContext{
			Workflow:  w.Name,
			Function:  f.Name,
			Instances: f.InstancesOf(),
			Params:    f.Params,
		}
		prog, _, err := workloads.GuestProgram(f.Name, ctx)
		if err != nil {
			lang := f.Language
			if lang == "" {
				lang = "native"
			}
			fmt.Printf("%-12s %-8s no guest image (%s tier)\n", f.Name, lang, lang)
			continue
		}
		if seen[prog] {
			fmt.Printf("%-12s %-8s OK (image already verified above)\n", f.Name, f.Language)
			continue
		}
		seen[prog] = true
		rep, err := scan.Verify(prog, allow)
		if err != nil {
			fmt.Printf("%-12s %-8s REJECTED: %v\n", f.Name, f.Language, err)
			rejected++
			continue
		}
		fmt.Printf("%-12s %-8s OK  funcs=%d max-stack=%d\n",
			f.Name, f.Language, len(rep.Funcs), rep.MaxStack())
		for _, fr := range rep.Funcs {
			imports := "-"
			if len(fr.Imports) > 0 {
				imports = strings.Join(fr.Imports, ",")
			}
			fmt.Printf("    %-10s blocks=%-3d max-stack=%-3d imports=%s\n",
				fr.Name, fr.Blocks, fr.MaxStack, imports)
		}
	}
	if rejected > 0 {
		fatal("%d guest image(s) rejected", rejected)
	}
}

func cmdInvoke(args []string) {
	fs := flag.NewFlagSet("invoke", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:8080", "asvisor address")
	timeout := fs.Duration("timeout", 0, "overall invocation timeout (0 = none)")
	retries := fs.Int("retries", 0, "retry the HTTP call on transport error or 5xx, with backoff")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	name := fs.Arg(0)
	url := fmt.Sprintf("http://%s/invoke/%s", *node, name)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	policy := faults.DefaultRetryPolicy()
	policy.MaxRetries = *retries

	var (
		resp *http.Response
		err  error
	)
	start := time.Now()
	for attempt := 0; ; attempt++ {
		var req *http.Request
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
		if err != nil {
			fatal("invoke: %v", err)
		}
		resp, err = http.DefaultClient.Do(req)
		// 5xx means the node (or the workflow) failed; 4xx is a caller
		// mistake and retrying would not change the answer.
		if err == nil && resp.StatusCode < 500 {
			break
		}
		if !policy.Allow(attempt, time.Since(start)) {
			break
		}
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if serr := policy.Sleep(ctx, attempt); serr != nil {
			break
		}
		fmt.Fprintf(os.Stderr, "asctl: retrying %s (attempt %d)\n", name, attempt+2)
	}
	if err != nil {
		fatal("invoke: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fmt.Printf("%s\n", body)
	if resp.StatusCode != http.StatusOK {
		os.Exit(1)
	}
}

// cmdTrace invokes a workflow with ?trace=1 and writes the returned
// Chrome trace_event JSON to a file loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:8080", "asvisor address")
	out := fs.String("o", "trace.json", "output file for the Chrome trace")
	timeout := fs.Duration("timeout", 0, "overall invocation timeout (0 = none)")
	id := fs.String("id", "", "fetch a retained trace by ID from /traces/ instead of invoking")
	fs.Parse(args)
	if *id != "" {
		fetchRetainedTrace(*node, *id, *out)
		return
	}
	if fs.NArg() != 1 {
		usage()
	}
	name := fs.Arg(0)
	url := fmt.Sprintf("http://%s/invoke/%s?trace=1", *node, name)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		fatal("trace: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal("trace: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)

	var r visor.InvokeResponse
	if err := json.Unmarshal(body, &r); err != nil {
		fatal("trace: decode response: %v (body: %s)", err, body)
	}
	if r.Error != "" {
		fmt.Fprintf(os.Stderr, "asctl: workflow error: %s\n", r.Error)
	}
	if len(r.Trace) == 0 {
		fatal("trace: node returned no trace (old asvisor?)")
	}
	if err := os.WriteFile(*out, r.Trace, 0o644); err != nil {
		fatal("trace: write %s: %v", *out, err)
	}
	fmt.Printf("workflow %q: e2e %.2fms cold-start %.2fms trace %s\n",
		r.Workflow, r.E2EMillis, r.ColdStartMs, r.TraceID)
	if r.Transfer != "" {
		fmt.Println("transfer:")
		for _, line := range strings.Split(r.Transfer, "\n") {
			fmt.Printf("  %s\n", line)
		}
	}
	fmt.Printf("wrote %s — load it at https://ui.perfetto.dev or chrome://tracing\n", *out)
	if resp.StatusCode != http.StatusOK {
		os.Exit(1)
	}
}

// fetchRetainedTrace downloads a tail-sampled trace the node retained
// (GET /traces/{id}) — the resolution path for exemplar trace IDs seen
// on /metrics or in invoke responses.
func fetchRetainedTrace(node, id, out string) {
	resp, err := http.Get(fmt.Sprintf("http://%s/traces/%s", node, id))
	if err != nil {
		fatal("trace: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fatal("trace %s: %s (%s) — the sampler may have dropped or evicted it", id,
			strings.TrimSpace(string(body)), resp.Status)
	}
	if err := os.WriteFile(out, body, 0o644); err != nil {
		fatal("trace: write %s: %v", out, err)
	}
	fmt.Printf("wrote %s — load it at https://ui.perfetto.dev or chrome://tracing\n", out)
}

// cmdPools queries /pools and prints one row per warm pool: stock,
// autoscaler target, hit/miss counters and the template boot cost the
// pool amortises.
func cmdPools(args []string) {
	fs := flag.NewFlagSet("pools", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:8080", "asvisor address")
	fs.Parse(args)
	resp, err := http.Get(fmt.Sprintf("http://%s/pools", *node))
	if err != nil {
		fatal("pools: %v", err)
	}
	defer resp.Body.Close()
	var stats []pool.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		fatal("pools: decode: %v", err)
	}
	if len(stats) == 0 {
		fmt.Println("no warm pools (start asvisor with -warm-pools)")
		return
	}
	fmt.Printf("%-20s %6s %6s %9s %6s %6s %6s %6s %14s\n",
		"WORKFLOW", "WARM", "TARGET", "MIN/MAX", "HITS", "MISS", "FORKS", "EVICT", "TEMPLATE-BOOT")
	for _, s := range stats {
		fmt.Printf("%-20s %6d %6d %5d/%-3d %6d %6d %6d %6d %12.0fms\n",
			s.Workflow, s.Warm, s.Target, s.Min, s.Max,
			s.Hits, s.Misses, s.Forks, s.Evictions, s.TemplateBoot)
	}
}

// cmdCluster queries a gateway's /cluster view and prints the
// membership table, the router's warm-placement counters and each
// workflow's rendezvous ring (top choice first, warm holders starred).
func cmdCluster(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:8080", "gateway address")
	fs.Parse(args)
	resp, err := http.Get(fmt.Sprintf("http://%s/cluster", *node))
	if err != nil {
		fatal("cluster: %v", err)
	}
	defer resp.Body.Close()
	var view gateway.ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		fatal("cluster: decode: %v", err)
	}
	s := view.Stats
	fmt.Printf("nodes %d/%d alive  warm-hit %.0f%% (%d hits, %d misses)  prewarms %d  shard-shed %d\n",
		s.NodesAlive, s.Nodes, 100*s.WarmHitRate, s.WarmHits, s.WarmMisses, s.Prewarms, s.ShardShed)
	fmt.Printf("%-22s %-16s %-6s %5s %9s %9s %5s  %s\n",
		"MEMBER", "ID", "ALIVE", "AGE", "CAPACITY", "INFLIGHT", "WARM", "WORKFLOWS")
	for _, m := range view.Members {
		alive := "yes"
		if !m.Alive {
			alive = "no"
		}
		if m.Info.Degraded {
			alive += "*"
		}
		capacity := "inf"
		if m.Info.Capacity > 0 {
			capacity = fmt.Sprint(m.Info.Capacity)
		}
		fmt.Printf("%-22s %-16s %-6s %4.0fms %9s %9d %5d  %s\n",
			m.Addr, m.Info.ID, alive, m.AgeMs, capacity, m.Info.Inflight,
			len(m.Info.Warm), strings.Join(m.Info.Workflows, ","))
	}
	if len(view.Rings) == 0 {
		return
	}
	fmt.Println("rings (top choice first; * = warm template held):")
	workflows := make([]string, 0, len(view.Rings))
	for wf := range view.Rings {
		workflows = append(workflows, wf)
	}
	sort.Strings(workflows)
	for _, wf := range workflows {
		var parts []string
		for _, c := range view.Rings[wf] {
			star := ""
			if c.Warm {
				star = "*"
			}
			parts = append(parts, fmt.Sprintf("%s%s(w=%.2f)", c.ID, star, c.Weight))
		}
		fmt.Printf("  %-20s %s\n", wf, strings.Join(parts, " > "))
	}
}

// cmdRuns queries /runs and prints one row per journaled run: the
// committed-stage prefix a resume would skip, spilled barrier payloads,
// compensations executed, and whether the journal is sealed (a sealed
// run is finished — resume refuses it).
func cmdRuns(args []string) {
	fs := flag.NewFlagSet("runs", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:8080", "asvisor address")
	fs.Parse(args)
	resp, err := http.Get(fmt.Sprintf("http://%s/runs", *node))
	if err != nil {
		fatal("runs: %v", err)
	}
	defer resp.Body.Close()
	var runs []journal.Summary
	if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
		fatal("runs: decode: %v", err)
	}
	if len(runs) == 0 {
		fmt.Println("no journaled runs (start asvisor with -journal)")
		return
	}
	fmt.Printf("%-24s %-20s %9s %7s %5s %7s %7s %-12s\n",
		"RUN", "WORKFLOW", "COMMITTED", "SPILLED", "COMPS", "RESUMES", "BYTES", "STATE")
	for _, s := range runs {
		state := "resumable"
		switch {
		case s.Sealed && s.Verdict != "":
			state = "sealed:" + s.Verdict
		case s.Sealed:
			state = "sealed"
		case s.Failed:
			state = "failed"
		}
		fmt.Printf("%-24s %-20s %6d/%-2d %7d %5d %7d %7d %-12s\n",
			s.ID, s.Workflow, s.Committed, s.Stages,
			s.Spilled, s.Comps, s.Resumes, s.Bytes, state)
	}
}

// cmdResume asks the node to resume one unsealed run from its journal.
// The node replays the journal, re-admits the run through the scheduler
// and continues from the last committed barrier; committed stages are
// skipped and their spilled outputs re-imported.
func cmdResume(args []string) {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	node := fs.String("node", "127.0.0.1:8080", "asvisor address")
	timeout := fs.Duration("timeout", 0, "overall resume timeout (0 = none)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	id := fs.Arg(0)
	url := fmt.Sprintf("http://%s/runs/%s/resume", *node, id)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		fatal("resume: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal("resume: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var r visor.InvokeResponse
	if err := json.Unmarshal(body, &r); err != nil {
		// Non-JSON error body (404, 409, ...): print it verbatim.
		fatal("resume: %s (%s)", strings.TrimSpace(string(body)), resp.Status)
	}
	if r.Error != "" {
		fatal("resume %s: %s", id, r.Error)
	}
	fmt.Printf("run %s (%s): resumed, %d stage(s) skipped, e2e %.2fms verdict %q\n",
		id, r.Workflow, r.StagesSkipped, r.E2EMillis, r.Verdict)
	if resp.StatusCode != http.StatusOK {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asctl: "+format+"\n", args...)
	os.Exit(1)
}
