// Package gateway implements the front door of an AlloyStack deployment
// (paper Figure 4): invocations arrive at the gateway and are
// load-balanced across AlloyStack processes, each of which runs a
// watchdog HTTP server. Round-robin routing is wrapped in a small
// circuit breaker: backends that fail transport-level or repeatedly
// return 5xx are marked down for a cooldown and skipped, with half-open
// probing so a recovered backend rejoins the rotation and a full outage
// still surfaces as ErrAllDown rather than a silent hang.
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"alloystack/internal/cluster"
	"alloystack/internal/faults"
	"alloystack/internal/metrics"
)

// Errors returned by the gateway.
var (
	ErrNoBackends = errors.New("gateway: no backends configured")
	ErrAllDown    = errors.New("gateway: all backends failed")
	// ErrBreakerOpen marks a backend skipped because its circuit breaker
	// was open — distinguishable (errors.Is) from a transport failure on
	// a backend that was actually tried.
	ErrBreakerOpen = errors.New("gateway: breaker open")
)

// backendState is one watchdog backend plus its breaker state.
type backendState struct {
	addr string

	mu        sync.Mutex
	fails     int // consecutive status-level failures
	downUntil time.Time
	// degraded mirrors the backend's /healthz self-report: the node can
	// serve but one of its workflows is inside an SLO breach. Degraded
	// backends stay in rotation, just behind healthy ones.
	degraded bool
}

// isDegraded reports the backend's last self-reported degraded state.
func (b *backendState) isDegraded() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.degraded
}

// setDegraded records the health probe's degraded reading.
func (b *backendState) setDegraded(v bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.degraded = v
}

// isDown reports whether the breaker currently excludes the backend
// from the primary rotation.
func (b *backendState) isDown(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return now.Before(b.downUntil)
}

// markDown trips the breaker for cooldown.
func (b *backendState) markDown(cooldown time.Duration, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.downUntil = now.Add(cooldown)
}

// noteFail counts a status-level failure, tripping the breaker when the
// consecutive-failure threshold is reached.
func (b *backendState) noteFail(threshold int, cooldown time.Duration, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails >= threshold {
		b.fails = 0
		b.downUntil = now.Add(cooldown)
	}
}

// markUp resets the breaker after a successful response.
func (b *backendState) markUp() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.downUntil = time.Time{}
}

// Gateway load-balances invocations across watchdog backends.
type Gateway struct {
	backends []*backendState
	next     atomic.Uint64
	client   *http.Client

	// Cooldown is how long a tripped backend stays out of the primary
	// rotation (default 500ms).
	Cooldown time.Duration
	// FailThreshold is how many consecutive 5xx responses trip the
	// breaker (default 3). Transport-level failures trip it instantly.
	FailThreshold int
	// Faults, when non-nil, is consulted before each forward so a
	// deterministic plan can simulate downed backends (BackendDown).
	Faults *faults.Plan
	// Cluster, when non-nil, replaces round-robin with the cluster
	// plane: rendezvous-hash routing over the membership view (fed by
	// the health loop polling each backend's /cluster), per-workflow
	// shard admission, and warm-placement pre-warm sweeps. When no
	// member is alive yet the gateway falls back to round-robin.
	Cluster *cluster.Router

	// extras holds breaker state for backends discovered through the
	// membership view that are not in the configured list.
	extraMu sync.Mutex
	extras  map[string]*backendState

	// prewarming dedupes in-flight pre-warm triggers per (workflow,
	// target) so overlapping sweeps do not double-build pools.
	prewarmMu  sync.Mutex
	prewarming map[string]bool

	failovers atomic.Int64
	requests  atomic.Int64
	shed      atomic.Int64
	// lat aggregates end-to-end gateway request latency (including
	// failovers) for /metrics.
	lat *metrics.Histogram

	srv        *http.Server
	ln         net.Listener
	healthStop chan struct{}
	healthWG   sync.WaitGroup
}

// New builds a gateway over the given watchdog addresses.
func New(backends ...string) (*Gateway, error) {
	if len(backends) == 0 {
		return nil, ErrNoBackends
	}
	states := make([]*backendState, len(backends))
	for i, addr := range backends {
		states[i] = &backendState{addr: addr}
	}
	return &Gateway{
		backends: states,
		client:   &http.Client{Timeout: 5 * time.Minute},
		lat:      metrics.NewHistogram(),
	}, nil
}

func (g *Gateway) cooldown() time.Duration {
	if g.Cooldown > 0 {
		return g.Cooldown
	}
	return 500 * time.Millisecond
}

func (g *Gateway) failThreshold() int {
	if g.FailThreshold > 0 {
		return g.FailThreshold
	}
	return 3
}

// forward outcomes.
const (
	outcomeOK        = iota // 2xx: success
	outcomeApp              // 4xx: caller error, do not fail over
	outcomeBackend          // 5xx: backend unhealthy, fail over with body
	outcomeTransport        // connection-level failure, fail over
	outcomeShed             // 429: backend saturated, fail over but stay in rotation
)

func (g *Gateway) forward(b *backendState, workflow, rawQuery string) ([]byte, error, int) {
	now := time.Now()
	if g.Faults != nil {
		if err := g.Faults.BackendFail(b.addr); err != nil {
			b.markDown(g.cooldown(), now)
			return nil, fmt.Errorf("gateway: backend %s: %w", b.addr, err), outcomeTransport
		}
	}
	url := fmt.Sprintf("http://%s/invoke/%s", b.addr, workflow)
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	resp, err := g.client.Post(url, "application/json", nil)
	if err != nil {
		b.markDown(g.cooldown(), now)
		return nil, fmt.Errorf("gateway: backend %s: %w", b.addr, err), outcomeTransport
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.markDown(g.cooldown(), now)
		return nil, fmt.Errorf("gateway: backend %s: %w", b.addr, err), outcomeTransport
	}
	switch {
	case resp.StatusCode < 300:
		b.markUp()
		return body, nil, outcomeOK
	case resp.StatusCode >= 500:
		b.noteFail(g.failThreshold(), g.cooldown(), now)
		return body, fmt.Errorf("gateway: backend %s: status %d", b.addr, resp.StatusCode), outcomeBackend
	case resp.StatusCode == http.StatusTooManyRequests:
		// Admission control shed the request: the backend is healthy,
		// just saturated. Spill to the next backend without tripping
		// the breaker; if every backend sheds, the caller gets the 429
		// body (with its Retry-After-derived error) back.
		b.markUp()
		g.shed.Add(1)
		return body, fmt.Errorf("gateway: backend %s: shed (429)", b.addr), outcomeShed
	default:
		// The backend answered coherently; the request is the problem.
		b.markUp()
		return body, fmt.Errorf("gateway: backend %s: status %d", b.addr, resp.StatusCode), outcomeApp
	}
}

// Invoke forwards one invocation. Healthy backends are tried first from
// the round-robin cursor; if none succeeds, marked-down backends are
// probed half-open so a recovered node rejoins immediately. Backends
// answering 4xx stop the search (the request itself is bad); 5xx and
// transport failures fail over to the next backend.
func (g *Gateway) Invoke(workflow string) ([]byte, error) {
	return g.InvokeQuery(workflow, "")
}

// InvokeQuery forwards one invocation with a raw query string appended
// to the backend URL, preserving client knobs like ?trace=1 and
// ?warm=0 across the hop.
func (g *Gateway) InvokeQuery(workflow, rawQuery string) ([]byte, error) {
	g.requests.Add(1)
	reqStart := time.Now()
	defer func() { g.lat.Observe(time.Since(reqStart)) }()
	if g.Cluster != nil {
		if body, err, handled := g.invokeCluster(workflow, rawQuery); handled {
			return body, err
		}
	}
	n := uint64(len(g.backends))
	start := g.next.Add(1)
	// Classify every backend once, against one clock snapshot, before
	// the pass loop. Pass 0 walks healthy non-degraded backends, pass 1
	// the degraded-but-up ones (an SLO breach deprioritises a node
	// without benching it), pass 2 probes the marked-down remainder
	// (half-open). Re-classifying inside the loop would let a backend
	// whose state flips mid-request (cooldown expiry, concurrent health
	// probe) compute a different pass each time and be skipped by all
	// three; with the snapshot, every backend matches exactly one pass.
	now := time.Now()
	want := make([]int, n)
	for i, b := range g.backends {
		switch {
		case b.isDown(now):
			want[i] = 2
		case b.isDegraded():
			want[i] = 1
		}
	}
	var lastErr error
	var lastBody []byte
	// causes keeps the latest failure per backend so a total outage
	// reports every backend's reason (wrapped, so errors.Is still finds
	// sentinels like ErrBreakerOpen through the errors.Join below)
	// instead of whichever error happened to be last.
	causes := make([]error, n)
	tried := 0
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < n; i++ {
			idx := (start + i) % n
			b := g.backends[idx]
			match := pass == want[idx]
			if pass == 2 && !match {
				// The half-open pass also re-probes backends whose
				// breaker tripped during this request (a pass-0/1
				// forward transport-failed): with a single backend
				// that is the only recovery path before ErrAllDown.
				match = b.isDown(time.Now())
			}
			if !match {
				continue
			}
			if tried > 0 {
				g.failovers.Add(1)
			}
			tried++
			body, err, outcome := g.forward(b, workflow, rawQuery)
			switch outcome {
			case outcomeOK:
				return body, nil
			case outcomeApp:
				return body, err
			case outcomeBackend, outcomeShed:
				lastBody, lastErr = body, err
				causes[idx] = err
			case outcomeTransport:
				lastErr = err
				causes[idx] = err
			}
		}
	}
	if lastBody != nil {
		// Every reachable backend rejected the invocation at the
		// application layer: surface the response, not ErrAllDown.
		return lastBody, lastErr
	}
	return nil, fmt.Errorf("%w: %w", ErrAllDown, errors.Join(causes...))
}

// Failovers reports how many times a request moved past its first
// candidate backend.
func (g *Gateway) Failovers() int64 { return g.failovers.Load() }

// BackendStatus reports each backend's breaker state (true = in the
// primary rotation).
func (g *Gateway) BackendStatus() map[string]bool {
	now := time.Now()
	out := make(map[string]bool, len(g.backends))
	for _, b := range g.backends {
		out[b.addr] = !b.isDown(now)
	}
	return out
}

// CheckHealth actively probes every backend's /healthz, updating the
// breaker: an unreachable or erroring backend is marked down, a
// responsive one rejoins the rotation. Returns the post-probe status.
func (g *Gateway) CheckHealth() map[string]bool {
	client := &http.Client{Timeout: 2 * time.Second}
	for _, b := range g.backends {
		resp, err := client.Get(fmt.Sprintf("http://%s/healthz", b.addr))
		if err != nil {
			b.markDown(g.cooldown(), time.Now())
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode < 300 {
			b.markUp()
			// The watchdog self-reports "degraded ..." when one of its
			// workflows is inside an SLO breach; such a backend stays up
			// but drops behind healthy peers in the rotation.
			b.setDegraded(bytes.HasPrefix(body, []byte("degraded")))
		} else {
			b.markDown(g.cooldown(), time.Now())
		}
	}
	if g.Cluster != nil {
		// The cluster plane rides the same loop: refresh the membership
		// view from each backend's /cluster advertisement, then trigger
		// any pre-warms the refreshed view calls for.
		g.pollCluster(client)
		g.PrewarmSweep()
	}
	return g.BackendStatus()
}

// StartHealthLoop probes backends every interval until Stop (or
// StopHealthLoop) is called.
func (g *Gateway) StartHealthLoop(interval time.Duration) {
	if g.healthStop != nil {
		return
	}
	g.healthStop = make(chan struct{})
	g.healthWG.Add(1)
	go func() {
		defer g.healthWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				g.CheckHealth()
			case <-g.healthStop:
				return
			}
		}
	}()
}

// StopHealthLoop halts the active health prober, if running.
func (g *Gateway) StopHealthLoop() {
	if g.healthStop == nil {
		return
	}
	close(g.healthStop)
	g.healthWG.Wait()
	g.healthStop = nil
}

// Start exposes the gateway itself over HTTP: POST /invoke/{workflow}.
func (g *Gateway) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	g.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/invoke/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		name := r.URL.Path[len("/invoke/"):]
		body, err := g.InvokeQuery(name, r.URL.RawQuery)
		var sbe *cluster.ShardBudgetError
		if errors.As(err, &sbe) {
			// The workflow's shard budget is exhausted at the gateway:
			// 429 with the limiter's Retry-After hint, mirroring the
			// watchdogs' admission-control surface.
			secs := int(sbe.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{
				"workflow": sbe.Workflow, "error": sbe.Error()})
			return
		}
		if err != nil && body == nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
		}
		w.Write(body)
	})
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/cluster", g.handleCluster)
	g.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go g.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// handleMetrics serves the metrics exposition: routed requests,
// failover count and each backend's circuit-breaker state (1 = in the
// primary rotation, 0 = tripped). The dialect (0.0.4 vs OpenMetrics)
// is negotiated from the Accept header.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pw, ctype := metrics.NegotiateWriter(w, r.Header.Get("Accept"))
	w.Header().Set("Content-Type", ctype)
	pw.Header("alloystack_gateway_requests_total", "counter",
		"Invocations routed through the gateway.")
	pw.Value("alloystack_gateway_requests_total", float64(g.requests.Load()))
	pw.Header("alloystack_gateway_failovers_total", "counter",
		"Requests that moved past their first candidate backend.")
	pw.Value("alloystack_gateway_failovers_total", float64(g.Failovers()))
	pw.Header("alloystack_gateway_shed_total", "counter",
		"Backend 429 responses absorbed by spilling to another backend.")
	pw.Value("alloystack_gateway_shed_total", float64(g.shed.Load()))
	pw.Header("alloystack_gateway_backend_up", "gauge",
		"Circuit-breaker state per backend (1 = in rotation).")
	status := g.BackendStatus()
	addrs := make([]string, 0, len(status))
	for addr := range status {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		up := 0.0
		if status[addr] {
			up = 1.0
		}
		pw.Value("alloystack_gateway_backend_up", up, "backend", addr)
	}
	pw.Header("alloystack_gateway_backend_degraded", "gauge",
		"Backend self-reported SLO-degraded state (1 = deprioritised).")
	byAddr := make(map[string]*backendState, len(g.backends))
	for _, b := range g.backends {
		byAddr[b.addr] = b
	}
	for _, addr := range addrs {
		deg := 0.0
		if byAddr[addr].isDegraded() {
			deg = 1.0
		}
		pw.Value("alloystack_gateway_backend_degraded", deg, "backend", addr)
	}
	if g.Cluster != nil {
		cs := g.Cluster.Stats()
		pw.Header("alloystack_cluster_nodes", "gauge",
			"Nodes in the membership view (alive or not).")
		pw.Value("alloystack_cluster_nodes", float64(cs.Nodes))
		pw.Header("alloystack_cluster_nodes_alive", "gauge",
			"Nodes whose last /cluster poll succeeded.")
		pw.Value("alloystack_cluster_nodes_alive", float64(cs.NodesAlive))
		pw.Header("alloystack_cluster_warm_hits_total", "counter",
			"Routed invocations served by a node holding a warm template.")
		pw.Value("alloystack_cluster_warm_hits_total", float64(cs.WarmHits))
		pw.Header("alloystack_cluster_warm_misses_total", "counter",
			"Routed invocations served by a node without a warm template.")
		pw.Value("alloystack_cluster_warm_misses_total", float64(cs.WarmMisses))
		pw.Header("alloystack_cluster_prewarms_total", "counter",
			"Pre-warm builds triggered by placement sweeps.")
		pw.Value("alloystack_cluster_prewarms_total", float64(cs.Prewarms))
		pw.Header("alloystack_cluster_shard_shed_total", "counter",
			"Invocations shed by per-workflow shard budgets (429).")
		pw.Value("alloystack_cluster_shard_shed_total", float64(cs.ShardShed))
	}
	pw.Histogram("alloystack_gateway_request_latency_seconds",
		"End-to-end gateway request latency including failovers.", g.lat)
	pw.BuildInfo("alloystack_build_info", metrics.CurrentBuild())
	pw.Finish()
}

// Stop shuts the gateway's HTTP server and health prober down and
// closes the client's idle connections (the client rides
// http.DefaultTransport, so other clients' idle connections go too and
// are re-dialled on use): a backend's graceful Shutdown waits five
// seconds on a connection that was dialled and never used.
func (g *Gateway) Stop() error {
	g.StopHealthLoop()
	g.client.CloseIdleConnections()
	if g.srv == nil {
		return nil
	}
	return g.srv.Close()
}

// Backends returns the configured backend list.
func (g *Gateway) Backends() []string {
	out := make([]string, len(g.backends))
	for i, b := range g.backends {
		out[i] = b.addr
	}
	return out
}
