package visor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alloystack/internal/dag"
	"alloystack/internal/journal"
	"alloystack/internal/metrics"
	"alloystack/internal/pool"
	"alloystack/internal/sched"
	"alloystack/internal/trace"
	"alloystack/internal/xfer"
)

// Watchdog is the HTTP server that listens for external invocation
// events and triggers workflow execution (paper §3.3: "the watchdog is
// an HTTP server that listens for external invocation events"). Each
// AlloyStack process runs one watchdog; a gateway load-balances across
// processes.
type Watchdog struct {
	visor *Visor
	// OptionsFor builds the run options for an invocation; defaults to
	// DefaultRunOptions. The harness injects per-experiment resources
	// (disk images, hubs) here.
	OptionsFor func(workflow string) RunOptions

	// Sched, when non-nil, is the node's admission control: a cap on
	// concurrently executing invocations and, unless it was built with
	// no queue, per-workflow FIFO queues with round-robin dispatch,
	// queue-depth caps and deadline-aware rejection. Shed requests get
	// 429 with a load-derived Retry-After. Nil admits everything.
	Sched *sched.Scheduler

	// Pools, when non-nil, serves invocations from warm snapshot/fork
	// instances when a pool exists for the workflow. Clients opt out per
	// request with ?warm=0.
	Pools *pool.Manager

	// Journal, when non-nil, enables durable runs: POST /invoke/X?durable=1
	// journals the run, GET /runs lists journaled runs, and POST
	// /runs/{id}/resume serves a crashed run like any fresh invocation,
	// continuing it from its last committed stage.
	Journal *journal.Store

	// NodeID is this node's routing identity on the cluster ring. The
	// gateway hashes it; it must be stable across restarts for ring
	// assignments to survive a node bounce (default: the bound address).
	NodeID string

	// PoolBuilder, when non-nil, lets POST /pools/prewarm build and seal
	// a warm pool for a workflow this node was asked to pre-warm. It
	// returns ok=false for workflows that cannot be pooled here.
	PoolBuilder func(w *dag.Workflow) (pool.Spec, pool.Config, bool)

	// Telemetry is the always-on observability plane (NewWatchdog
	// builds one with the zero config; assign another before Start):
	// every invocation runs under its own tracer, whose flight dump a
	// failed run prints; tail-sampled trace exports are served from
	// /traces/{id}; per-workflow latency histograms, their merge across
	// workflows and SLO burn rates join /metrics; and an SLO breach
	// flips /healthz to degraded and snapshots profiles.
	Telemetry *Telemetry

	// prewarmMu lets one pre-warm build at a time.
	prewarmMu sync.Mutex

	srv       *http.Server
	ln        net.Listener
	frames    *frameSet // the gateways' upgraded connections
	inflight  atomic.Int64
	completed atomic.Int64
	failures  atomic.Int64
	retries   atomic.Int64
	shed      atomic.Int64
	memPeak   atomic.Uint64

	// transfer aggregates the run data planes' transfer counters for
	// /metrics.
	transfer *metrics.TransportStats
}

// InvokeResponse is the JSON reply to an invocation.
type InvokeResponse struct {
	Workflow    string  `json:"workflow"`
	E2EMillis   float64 `json:"e2e_ms"`
	ColdStartMs float64 `json:"cold_start_ms"`
	MemPeak     uint64  `json:"mem_peak_bytes"`
	Retries     int     `json:"retries,omitempty"`
	// WarmStart reports the invocation booted from a pooled
	// snapshot/fork clone; QueueWaitMs is time spent in admission.
	WarmStart   bool    `json:"warm_start,omitempty"`
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	Error       string  `json:"error,omitempty"`
	// TraceID/Trace/Transfer are present when the invocation was traced
	// (?trace=1): the trace identifier, the Chrome trace_event JSON for
	// the run (Perfetto-loadable as-is), and the rendered per-transport
	// counter table.
	TraceID  string          `json:"trace_id,omitempty"`
	Trace    json.RawMessage `json:"trace,omitempty"`
	Transfer string          `json:"transfer,omitempty"`
	// RunID/Resumed/StagesSkipped/Compensations/Verdict describe durable
	// runs (journaled invocations and resumes).
	RunID         string `json:"run_id,omitempty"`
	Resumed       bool   `json:"resumed,omitempty"`
	StagesSkipped int    `json:"stages_skipped,omitempty"`
	Compensations int    `json:"compensations,omitempty"`
	Verdict       string `json:"verdict,omitempty"`
}

// NewWatchdog wraps v in an HTTP front end.
func NewWatchdog(v *Visor) *Watchdog {
	return &Watchdog{
		visor:     v,
		Telemetry: NewTelemetry(TelemetryConfig{}),
		transfer:  metrics.NewTransportStats(),
	}
}

// Start listens on addr ("127.0.0.1:0" for ephemeral) and serves until
// Stop. It returns the bound address.
func (wd *Watchdog) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	wd.ln = ln
	wd.frames = &frameSet{conns: make(map[*framed]struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/invoke/", wd.handleInvoke)
	mux.HandleFunc(xfer.InvokePath, wd.handleFrames)
	mux.HandleFunc("/healthz", wd.handleHealth)
	mux.HandleFunc("/workflows", wd.handleList)
	mux.HandleFunc("/workflows/", wd.handleWorkflow)
	mux.HandleFunc("/pools", wd.handlePools)
	mux.HandleFunc("/pools/prewarm", wd.handlePrewarm)
	mux.HandleFunc("/cluster", wd.handleCluster)
	mux.HandleFunc("/runs", wd.handleRuns)
	mux.HandleFunc("/runs/", wd.handleRunResume)
	mux.HandleFunc("/metrics", wd.handleMetrics)
	mux.HandleFunc("/traces/", wd.handleTrace)
	// Profiling endpoints for anomaly debugging: the custom mux does not
	// inherit net/http's DefaultServeMux registrations, so wire the pprof
	// handlers explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	wd.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go wd.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// stopGrace bounds how long Stop waits for in-flight invocations to
// drain before aborting them.
const stopGrace = 10 * time.Second

// Stop shuts the server down gracefully: in-flight invocations drain
// for up to stopGrace before being aborted, so a node restart does not
// kill running workflows mid-flight. That holds for the gateways'
// framed connections too: idle ones close at once, busy ones after
// their reply.
func (wd *Watchdog) Stop() error {
	if wd.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), stopGrace)
	defer cancel()
	drained := make(chan struct{})
	go func() {
		wd.frames.drain(ctx)
		close(drained)
	}()
	defer func() { <-drained }()
	if err := wd.srv.Shutdown(ctx); err != nil {
		// Grace expired with requests still running: abort them.
		return wd.srv.Close()
	}
	return nil
}

// Addr returns the bound address.
func (wd *Watchdog) Addr() string {
	if wd.ln == nil {
		return ""
	}
	return wd.ln.Addr().String()
}

// Inflight reports currently executing invocations.
func (wd *Watchdog) Inflight() int64 { return wd.inflight.Load() }

// Completed reports total completed invocations.
func (wd *Watchdog) Completed() int64 { return wd.completed.Load() }

// handleInvoke parses POST /invoke/{workflow}.
func (wd *Watchdog) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/invoke/")
	writeAnswer(w, wd.serve(r.Context(), name, r.URL.RawQuery, nil))
}

// handleRunResume parses POST /runs/{id}/resume and replays the journal;
// the run is then served like a fresh invocation of its workflow and
// continues from its last committed stage. Sealed runs refuse with 409.
func (wd *Watchdog) handleRunResume(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/runs/")
	id, tail, ok := strings.Cut(rest, "/")
	if !ok || tail != "resume" || id == "" {
		http.Error(w, "want /runs/{id}/resume", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if wd.Journal == nil {
		http.Error(w, errNoJournal.Error(), http.StatusNotImplemented)
		return
	}
	st, err := wd.Journal.Load(id)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, journal.ErrNotFound) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	if st.Sealed {
		http.Error(w, fmt.Sprintf("run %s is sealed (verdict %q)", id, st.Verdict),
			http.StatusConflict)
		return
	}
	writeAnswer(w, wd.serve(r.Context(), st.Workflow, r.URL.RawQuery, st))
}

// errNoJournal answers a durable request on a node with no journal.
var errNoJournal = errors.New("no journal configured")

// answer is what one invocation replies, whatever carried the request:
// the HTTP handlers and the gateway's invoke frames both render it.
type answer struct {
	status     int
	retryAfter int // the Retry-After hint in seconds, 0 when none
	resp       InvokeResponse
	// text, when set, replaces resp with a plain-text refusal (http.Error's
	// shape: the text and a newline).
	text string
}

// serve is the node's one front end, free of any transport: every
// invoke path ends here. Build the options, admit, trace, run, account,
// answer. rawQuery is the request's URL query; ctx cancels the run when
// the requester goes away; st is the replayed journal of the run to
// resume, nil for a fresh invocation.
func (wd *Watchdog) serve(ctx context.Context, name, rawQuery string, st *journal.State) answer {
	if name == "" {
		return answer{status: http.StatusBadRequest, text: "missing workflow name"}
	}
	var q url.Values // nil reads as empty: no map for the common bare invoke
	if rawQuery != "" {
		q, _ = url.ParseQuery(rawQuery) // what r.URL.Query() keeps of a malformed query
	}
	opts, err := wd.runOptions(ctx, q, name, st)
	if err != nil {
		return answer{status: http.StatusNotImplemented, text: err.Error()}
	}
	// Admission. A shed request gets 429 and a Retry-After hint (at
	// least a second), so well-behaved clients back off and the gateway
	// fails over to another backend.
	if wd.Sched != nil {
		grant, err := wd.Sched.Admit(opts.Ctx, name, opts.Deadline)
		if err != nil {
			wd.shed.Add(1)
			return answer{
				status:     http.StatusTooManyRequests,
				retryAfter: int(wd.Sched.RetryAfter() / time.Second),
				resp:       InvokeResponse{Workflow: name, Error: err.Error()},
			}
		}
		defer grant.Release()
		opts.QueueWait = grant.Wait
	}
	// Every run is traced by the telemetry plane, which decides after
	// the fact whether to retain the export (tail sampling). ?trace=1
	// also puts the Chrome export inline in the response.
	opts.Trace = wd.Telemetry.StartRun(name)

	var wf *dag.Workflow
	if st != nil {
		wf = st.Spec // nil when the journal predates spec records or its spec fails dag.Parse
	}
	wd.inflight.Add(1)
	start := time.Now()
	var res *RunResult
	if wf == nil {
		wf, err = wd.visor.Workflow(name)
	}
	if err == nil {
		res, err = wd.visor.RunWorkflow(wf, opts)
	}
	dur := time.Since(start)
	wd.inflight.Add(-1)
	wd.account(res, err)
	wd.Telemetry.ObserveRun(name, opts.Trace, dur, err)

	resp := response(name, res, err)
	if res == nil {
		resp.RunID = opts.Resume
	}
	// The ID lets clients fetch the export from /traces/{id} if the
	// sampler retained it.
	resp.TraceID = opts.Trace.TraceID()
	if q.Get("trace") == "1" {
		if data, terr := trace.ChromeJSON(opts.Trace); terr == nil {
			resp.Trace = data
		}
	}
	return answer{status: statusOf(err), resp: resp}
}

// writeAnswer renders a over HTTP.
func writeAnswer(w http.ResponseWriter, a answer) {
	if a.text != "" {
		http.Error(w, a.text, a.status)
		return
	}
	if a.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(a.retryAfter))
	}
	writeJSON(w, a.status, a.resp)
}

// writeJSON sends v as the JSON reply with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// runOptions builds one request's run options: the node's OptionsFor,
// bounded by the request's context, then what the request itself
// selects — the run to resume, ?durable=1, ?warm=0.
func (wd *Watchdog) runOptions(ctx context.Context, q url.Values, name string, st *journal.State) (RunOptions, error) {
	opts := DefaultRunOptions()
	if wd.OptionsFor != nil {
		opts = wd.OptionsFor(name)
	}
	if opts.Ctx == nil {
		// A disconnected client cancels the invocation it requested.
		opts.Ctx = ctx
	}
	switch {
	case st != nil:
		opts.Journal, opts.Resume = wd.Journal, st.ID
	case q.Get("durable") == "1" && opts.Journal == nil:
		// ?durable=1 journals this run through the watchdog's store so a
		// crash mid-run is resumable. A store from OptionsFor wins; a
		// node with none refuses rather than run non-durable behind the
		// client's back.
		if wd.Journal == nil {
			return opts, errNoJournal
		}
		opts.Journal = wd.Journal
	}
	// Warm pools: boot from a snapshot/fork clone when a pool serves
	// this workflow, unless the client asked for a cold boot (?warm=0).
	if wd.Pools != nil && q.Get("warm") != "0" {
		if p := wd.Pools.Get(name); p != nil {
			opts.Pool, opts.WarmStart = p, true
		}
	}
	return opts, nil
}

// response renders a finished run. A failed run that still has a result
// (a durable run the journal accounts for) reports its journal fields.
func response(name string, res *RunResult, err error) InvokeResponse {
	resp := InvokeResponse{Workflow: name}
	if err != nil {
		resp.Error = err.Error()
	} else {
		resp.E2EMillis = float64(res.E2E) / float64(time.Millisecond)
		resp.ColdStartMs = float64(res.ColdStart) / float64(time.Millisecond)
		resp.MemPeak = res.MemPeak
		resp.Retries = res.Retries
		resp.WarmStart = res.WarmStart
		resp.QueueWaitMs = float64(res.QueueWait) / float64(time.Millisecond)
		resp.Transfer = res.Transfer.String()
	}
	if res != nil {
		resp.RunID = res.RunID
		resp.Resumed = res.Resumed
		resp.StagesSkipped = res.StagesSkipped
		resp.Compensations = res.Compensations
		resp.Verdict = res.Verdict
	}
	return resp
}

// account folds one finished run into the /metrics counters.
func (wd *Watchdog) account(res *RunResult, err error) {
	wd.completed.Add(1)
	if err != nil {
		wd.failures.Add(1)
	}
	if res == nil {
		return
	}
	wd.retries.Add(int64(res.Retries))
	wd.transfer.Merge(res.Transfer)
	for {
		cur := wd.memPeak.Load()
		if res.MemPeak <= cur || wd.memPeak.CompareAndSwap(cur, res.MemPeak) {
			break
		}
	}
}

// statusOf maps a run's error to the HTTP status of its reply.
func statusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrUnknownWorkflow) || errors.Is(err, ErrUnknownFunction):
		return http.StatusNotFound
	case errors.Is(err, ErrRejected):
		// A statically rejected guest image is the caller's fault and
		// will never succeed on retry.
		return http.StatusForbidden
	case errors.Is(err, journal.ErrSealed):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// handleTrace serves GET /traces/{id}: the Chrome trace_event JSON of a
// run the tail sampler retained. 404 for dropped or unknown IDs.
func (wd *Watchdog) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/traces/")
	if id == "" {
		writeJSON(w, http.StatusOK, wd.Telemetry.TraceIDs())
		return
	}
	data, ok := wd.Telemetry.TraceJSON(id)
	if !ok {
		http.Error(w, "trace not retained", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleMetrics serves the metrics exposition: invocation counters,
// the end-to-end latency digest and the aggregated transport counters
// across every run this watchdog has driven. The dialect is negotiated
// from the Accept header — OpenMetrics scrapes get histogram exemplar
// suffixes, plain 0.0.4 scrapes get an exemplar-free exposition the
// stock text parser accepts.
func (wd *Watchdog) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pw, ctype := metrics.NegotiateWriter(w, r.Header.Get("Accept"))
	w.Header().Set("Content-Type", ctype)
	pw.Header("alloystack_watchdog_invocations_total", "counter",
		"Completed workflow invocations.")
	pw.Value("alloystack_watchdog_invocations_total", float64(wd.Completed()))
	pw.Header("alloystack_watchdog_failures_total", "counter",
		"Invocations that returned an error.")
	pw.Value("alloystack_watchdog_failures_total", float64(wd.failures.Load()))
	pw.Header("alloystack_watchdog_retries_total", "counter",
		"Function restarts absorbed by fault tolerance.")
	pw.Value("alloystack_watchdog_retries_total", float64(wd.retries.Load()))
	pw.Header("alloystack_watchdog_inflight", "gauge",
		"Invocations currently executing.")
	pw.Value("alloystack_watchdog_inflight", float64(wd.Inflight()))
	pw.Header("alloystack_watchdog_mem_peak_bytes", "gauge",
		"Largest WFD peak mapped memory observed.")
	pw.Value("alloystack_watchdog_mem_peak_bytes", float64(wd.memPeak.Load()))
	pw.Header("alloystack_watchdog_shed_total", "counter",
		"Invocations rejected by admission control (429).")
	pw.Value("alloystack_watchdog_shed_total", float64(wd.shed.Load()))
	pw.Header("alloystack_scan_rejects_total", "counter",
		"Invocations rejected by the static guest-image scan (403).")
	pw.Value("alloystack_scan_rejects_total", float64(wd.visor.ScanRejects()))
	if wd.Sched != nil {
		st := wd.Sched.Stats()
		pw.Header("alloystack_sched_backlog", "gauge",
			"Requests queued behind the concurrency limit.")
		pw.Value("alloystack_sched_backlog", float64(st.Backlog))
		pw.Header("alloystack_sched_admitted_total", "counter",
			"Requests granted an execution slot.")
		pw.Value("alloystack_sched_admitted_total", float64(st.Admitted))
		pw.Header("alloystack_sched_deadlined_total", "counter",
			"Requests rejected because their deadline could not be met.")
		pw.Value("alloystack_sched_deadlined_total", float64(st.Deadlined))
		pw.Header("alloystack_sched_queue_wait_max_ms", "gauge",
			"Largest admission queue wait observed.")
		pw.Value("alloystack_sched_queue_wait_max_ms", st.MaxWaitMs)
	}
	if wd.Pools != nil {
		stats := wd.Pools.Stats()
		pw.Header("alloystack_pool_warm_instances", "gauge",
			"Idle warm clones ready to serve.")
		for _, ps := range stats {
			pw.Value("alloystack_pool_warm_instances", float64(ps.Warm),
				"workflow", ps.Workflow)
		}
		pw.Header("alloystack_pool_hits_total", "counter",
			"Invocations served from a warm clone.")
		for _, ps := range stats {
			pw.Value("alloystack_pool_hits_total", float64(ps.Hits),
				"workflow", ps.Workflow)
		}
		pw.Header("alloystack_pool_misses_total", "counter",
			"Invocations that fell back to a cold boot.")
		for _, ps := range stats {
			pw.Value("alloystack_pool_misses_total", float64(ps.Misses),
				"workflow", ps.Workflow)
		}
	}
	if wd.Journal != nil {
		js := wd.Journal.Stats()
		pw.Header("alloystack_journal_appends_total", "counter",
			"Write-ahead journal records appended.")
		pw.Value("alloystack_journal_appends_total", float64(js.Appends))
		pw.Header("alloystack_journal_bytes", "counter",
			"Bytes written to run journals (frames included).")
		pw.Value("alloystack_journal_bytes", float64(js.Bytes))
		pw.Header("alloystack_runs_resumed_total", "counter",
			"Journaled runs re-opened for resume.")
		pw.Value("alloystack_runs_resumed_total", float64(js.Resumes))
		pw.Header("alloystack_compensations_total", "counter",
			"Saga compensation handlers executed, by result.")
		pw.Value("alloystack_compensations_total", float64(js.CompOK), "result", "ok")
		pw.Value("alloystack_compensations_total", float64(js.CompFailed), "result", "failed")
	}
	pw.Histogram("alloystack_watchdog_invoke_latency_seconds",
		"End-to-end invocation latency across all workflows.", wd.Telemetry.Latency())
	pw.Transport("alloystack_watchdog_transport", wd.transfer)
	pw.BuildInfo("alloystack_build_info", metrics.CurrentBuild())
	wd.Telemetry.WriteMetrics(pw)
	pw.Finish()
}

// handlePools serves warm-pool statistics as JSON (asctl pools).
func (wd *Watchdog) handlePools(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if wd.Pools == nil {
		w.Write([]byte("[]\n"))
		return
	}
	json.NewEncoder(w).Encode(wd.Pools.Stats())
}

// handleRuns lists the journaled runs as JSON (asctl runs).
func (wd *Watchdog) handleRuns(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if wd.Journal == nil {
		w.Write([]byte("[]\n"))
		return
	}
	runs, err := wd.Journal.List()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if runs == nil {
		runs = []journal.Summary{}
	}
	json.NewEncoder(w).Encode(runs)
}

// Shed reports invocations rejected by admission control.
func (wd *Watchdog) Shed() int64 { return wd.shed.Load() }

func (wd *Watchdog) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Degraded (SLO breach in progress) still answers 200 — the node can
	// serve — but leads with "degraded" so the gateway's health loop can
	// deprioritise it in backend rotation.
	if bad, wfs := wd.Telemetry.Degraded(); bad {
		fmt.Fprintf(w, "degraded workflows=%s inflight=%d completed=%d\n",
			strings.Join(wfs, ","), wd.Inflight(), wd.Completed())
		return
	}
	fmt.Fprintf(w, "ok inflight=%d completed=%d\n", wd.Inflight(), wd.Completed())
}

func (wd *Watchdog) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wd.visor.Workflows())
}
