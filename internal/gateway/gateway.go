// Package gateway implements the front door of an AlloyStack deployment
// (paper Figure 4): invocations arrive at the gateway and are
// load-balanced across AlloyStack processes, each of which runs a
// watchdog. One routing path serves every request: take the workflow's
// shard token, order the backends (order), try them under one failover
// policy (walk), relay what the node said. The hop to a watchdog is an
// invoke frame over a kept-open connection (xfer.InvokeConn), pooled
// per backend; HTTP is only the public edge. Each backend carries
// a small circuit breaker: one that fails transport-level or repeatedly
// returns 5xx is marked down for a cooldown and tried last, half-open,
// so a recovered backend rejoins at once and a full outage still
// surfaces as ErrAllDown rather than a silent hang.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"alloystack/internal/cluster"
	"alloystack/internal/faults"
	"alloystack/internal/metrics"
	"alloystack/internal/xfer"
)

// Errors returned by the gateway.
var (
	ErrNoBackends = errors.New("gateway: no backends configured")
	ErrAllDown    = errors.New("gateway: all backends failed")
	ErrTooLong    = errors.New("gateway: workflow name or query over the invoke frame's cap")
)

// backendState is one watchdog backend: its breaker state and its idle
// framed connections.
type backendState struct {
	addr string

	mu        sync.Mutex
	fails     int // consecutive status-level failures
	downUntil time.Time
	idle      []*xfer.InvokeConn // most recently used last
}

// maxIdle bounds the idle connections kept per backend; one returned
// past it is closed.
const maxIdle = 64

// take checks an idle connection out, nil when there is none.
func (b *backendState) take() *xfer.InvokeConn {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.idle)
	if n == 0 {
		return nil
	}
	c := b.idle[n-1]
	b.idle[n-1] = nil
	b.idle = b.idle[:n-1]
	return c
}

// put returns a connection whose last exchange completed.
func (b *backendState) put(c *xfer.InvokeConn) {
	b.mu.Lock()
	if len(b.idle) < maxIdle {
		b.idle = append(b.idle, c)
		c = nil
	}
	b.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// offer pools c if b has no idle connection, and closes it otherwise.
func (b *backendState) offer(c *xfer.InvokeConn) {
	b.mu.Lock()
	if len(b.idle) == 0 {
		b.idle = append(b.idle, c)
		c = nil
	}
	b.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// closeIdle closes every idle connection.
func (b *backendState) closeIdle() {
	b.mu.Lock()
	idle := b.idle
	b.idle = nil
	b.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// isDown reports whether the breaker is open: the backend is tried
// only after every backend whose breaker is closed.
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
	states   map[string]*backendState // backends by address
	next     atomic.Uint64
	// dial opens a framed connection to a backend.
	dial func(addr string) (*xfer.InvokeConn, error)

	// Cooldown is how long a tripped breaker stays open (default 500ms).
	Cooldown time.Duration //asvet:allow unreachable -- the seam tests shorten or stretch breaker time through
	// FailThreshold is how many consecutive 5xx responses trip the
	// breaker (default 3). Transport-level failures trip it instantly.
	FailThreshold int //asvet:allow unreachable -- test seam, see Cooldown
	// Faults, when non-nil, is consulted before each forward so a
	// deterministic plan can simulate downed backends (BackendDown).
	Faults *faults.Plan //asvet:allow unreachable -- the chaos seam: integration chaos tests install a BackendDown plan
	// Cluster is the cluster plane, never nil: the membership view the
	// health loop feeds from each backend's /cluster (and nothing else
	// may: every member is one of this gateway's backends), the
	// rendezvous ranking over it, per-workflow shard admission and the
	// pre-warm plans. New installs a default router; assign a configured
	// one before serving.
	Cluster *cluster.Router

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
	g := &Gateway{
		backends: make([]*backendState, len(backends)),
		states:   make(map[string]*backendState, len(backends)),
		dial:     dialBackend,
		Cluster:  cluster.NewRouter(cluster.Config{}),
		lat:      metrics.NewHistogram(),
	}
	for i, addr := range backends {
		g.backends[i] = &backendState{addr: addr}
		g.states[addr] = g.backends[i]
	}
	return g, nil
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

// reply is what a backend answered: the HTTP front end relays all three.
type reply struct {
	status     int
	body       []byte
	retryAfter int // the Retry-After hint in seconds, 0 when none
}

// forward outcomes.
const (
	outcomeOK        = iota // 2xx: success
	outcomeApp              // 4xx: caller error, do not fail over
	outcomeBackend          // 5xx: backend unhealthy, fail over with the reply
	outcomeTransport        // connection-level failure, fail over
	outcomeShed             // 429: backend saturated, fail over but keep the breaker closed
)

// The bounds on dialling a backend and on polling it.
const (
	dialTimeout = 2 * time.Second
	pollTimeout = 2 * time.Second
)

// requestTimeout bounds one invoke exchange with a backend, as the
// connection's deadline.
var requestTimeout = 5 * time.Minute

func dialBackend(addr string) (*xfer.InvokeConn, error) {
	return xfer.DialInvoke(addr, dialTimeout)
}

func (g *Gateway) forward(b *backendState, workflow, rawQuery string) (reply, error, int) {
	now := time.Now()
	if g.Faults != nil {
		if err := g.Faults.BackendFail(b.addr); err != nil {
			b.markDown(g.cooldown(), now)
			return reply{}, fmt.Errorf("gateway: backend %s: %w", b.addr, err), outcomeTransport
		}
	}
	rep, err := g.exchange(b, workflow, rawQuery)
	if err != nil {
		b.markDown(g.cooldown(), now)
		return reply{}, fmt.Errorf("gateway: backend %s: %w", b.addr, err), outcomeTransport
	}
	switch {
	case rep.status < 300:
		b.markUp()
		return rep, nil, outcomeOK
	case rep.status >= 500:
		b.noteFail(g.failThreshold(), g.cooldown(), now)
		return rep, fmt.Errorf("gateway: backend %s: status %d", b.addr, rep.status), outcomeBackend
	case rep.status == http.StatusTooManyRequests:
		// Admission control shed the request: the backend is healthy,
		// just saturated. Spill to the next backend without tripping
		// the breaker; if every backend sheds, the caller gets the 429
		// and its Retry-After back.
		b.markUp()
		g.shed.Add(1)
		return rep, fmt.Errorf("gateway: backend %s: shed (429)", b.addr), outcomeShed
	default:
		// The backend answered coherently; the request is the problem.
		b.markUp()
		return rep, fmt.Errorf("gateway: backend %s: status %d", b.addr, rep.status), outcomeApp
	}
}

// exchange sends one invoke frame to b and reads its reply, over an
// idle connection when b has one and a fresh one otherwise. A reused
// connection that fails before the reply's first byte was most likely
// closed by the backend while it sat idle (a stop, a restart), so it is
// replaced by one fresh dial; a failure after that byte, or on a fresh
// connection, is the transport failure.
func (g *Gateway) exchange(b *backendState, workflow, rawQuery string) (reply, error) {
	c, reused := b.take(), true
	if c == nil {
		var err error
		if c, err = g.dial(b.addr); err != nil {
			return reply{}, err
		}
		reused = false
	}
	rep, err := roundTrip(b, c, workflow, rawQuery)
	if err != nil && reused && errors.Is(err, xfer.ErrNoReply) {
		if c, err = g.dial(b.addr); err == nil {
			rep, err = roundTrip(b, c, workflow, rawQuery)
		}
	}
	return rep, err
}

// roundTrip is one exchange on c under the per-request bound. c goes
// back to b's idle set after a reply and is closed after a failure.
func roundTrip(b *backendState, c *xfer.InvokeConn, workflow, rawQuery string) (reply, error) {
	var r xfer.InvokeReply
	err := c.SetDeadline(time.Now().Add(requestTimeout))
	if err == nil {
		r, err = c.Invoke(workflow, rawQuery)
	}
	if err != nil {
		c.Close()
		return reply{}, err
	}
	b.put(c)
	return reply{status: r.Status, body: r.Body, retryAfter: r.RetryAfter}, nil
}

// Invoke forwards one invocation and returns the serving backend's
// reply body; see route for the path and walk for the failover policy.
func (g *Gateway) Invoke(workflow string) ([]byte, error) {
	return g.InvokeQuery(workflow, "")
}

// InvokeQuery forwards one invocation with a raw query string appended
// to the backend URL, preserving client knobs like ?trace=1 and
// ?warm=0 across the hop.
func (g *Gateway) InvokeQuery(workflow, rawQuery string) ([]byte, error) {
	rep, err := g.route(workflow, rawQuery)
	return rep.body, err
}

// route is the gateway's one request path: shard token, order, walk.
// A reply with a body is what a backend said, error or not, or the 414
// for a request no invoke frame can carry (ErrTooLong); a reply without
// one means the request was shed here (*cluster.ShardBudgetError) or no
// backend could be reached (ErrAllDown).
func (g *Gateway) route(workflow, rawQuery string) (reply, error) {
	g.requests.Add(1)
	reqStart := time.Now()
	defer func() { g.lat.Observe(time.Since(reqStart)) }()
	if len(workflow) > xfer.MaxInvokeName || len(rawQuery) > xfer.MaxInvokeQuery {
		// No frame can carry it: refuse it here, in the watchdogs' shape.
		body, _ := json.Marshal(map[string]string{"workflow": workflow, "error": ErrTooLong.Error()}) // cannot fail: two strings
		return reply{status: http.StatusRequestURITooLong, body: body}, ErrTooLong
	}
	release, err := g.Cluster.Admit(workflow)
	if err != nil {
		g.shed.Add(1)
		return reply{}, err
	}
	defer release()
	cands, placed := g.order(workflow)
	return g.walk(cands, placed, workflow, rawQuery)
}

// order lists the backends to try for workflow, best first. When the
// membership view holds a live member it is the router's damped
// rendezvous ranking (placed: the router chose, and is told who served).
// Otherwise nothing is known about the fleet — no health turn has run
// yet, or none ever will (library use) — and the one ordering left is
// the configured list rotated from a round-robin cursor.
func (g *Gateway) order(workflow string) (cands []cluster.Candidate, placed bool) {
	if cands = g.Cluster.Route(workflow); len(cands) > 0 {
		return cands, true
	}
	n := uint64(len(g.backends))
	start := g.next.Add(1)
	cands = make([]cluster.Candidate, n)
	for i := range cands {
		cands[i].Addr = g.backends[(start+uint64(i))%n].addr
	}
	return cands, false
}

// walk is the failover policy, stated once:
//
//   - candidates whose breaker is closed are tried in order;
//   - then the open ones are probed half-open, in order — among them a
//     breaker this request tripped, which with a single backend is the
//     only recovery path before ErrAllDown;
//   - a 2xx ends the walk, and so does a 4xx: the request is the problem;
//   - 5xx, 429 and transport failures move on, each leaving its cause;
//   - with every candidate spent, the last reply a backend did send is
//     surfaced (carrying the largest Retry-After seen); with none, the
//     causes are joined under ErrAllDown.
func (g *Gateway) walk(cands []cluster.Candidate, placed bool, workflow, rawQuery string) (reply, error) {
	var (
		last    reply // the last 5xx or 429 a backend answered
		lastErr error
		causes  []error
	)
	first := len(cands) // cands[first:] is the half-open queue the loop appends to
	tried := 0
	for i := 0; i < len(cands); i++ {
		c := cands[i]
		b := g.states[c.Addr]
		if i < first && b.isDown(time.Now()) {
			cands = append(cands, c)
			continue
		}
		if tried > 0 {
			g.failovers.Add(1)
		}
		tried++
		rep, err, outcome := g.forward(b, workflow, rawQuery)
		switch outcome {
		case outcomeOK:
			if placed {
				g.Cluster.NoteServed(c)
			}
			return rep, nil
		case outcomeApp:
			return rep, err
		case outcomeBackend, outcomeShed:
			rep.retryAfter = max(rep.retryAfter, last.retryAfter)
			last, lastErr = rep, err
		}
		causes = append(causes, err)
		if i < first && b.isDown(time.Now()) {
			cands = append(cands, c)
		}
	}
	if last.body != nil {
		return last, lastErr
	}
	return reply{}, fmt.Errorf("%w: %w", ErrAllDown, errors.Join(causes...))
}

// Failovers reports how many times a request moved past its first
// candidate backend.
func (g *Gateway) Failovers() int64 { return g.failovers.Load() }

// BackendStatus reports each backend's breaker state (true = closed).
func (g *Gateway) BackendStatus() map[string]bool {
	now := time.Now()
	out := make(map[string]bool, len(g.backends))
	for _, b := range g.backends {
		out[b.addr] = !b.isDown(now)
	}
	return out
}

// CheckHealth is one health turn: poll every backend's /cluster (one
// request each, feeding breaker and membership view alike), then trigger
// the pre-warms the refreshed view calls for. Returns the post-poll
// breaker status.
func (g *Gateway) CheckHealth() map[string]bool {
	for _, b := range g.backends {
		g.poll(b)
	}
	g.PrewarmSweep()
	return g.BackendStatus()
}

// StartHealthLoop runs CheckHealth every interval until Stop (or
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
		rep, err := g.route(name, r.URL.RawQuery)
		var sbe *cluster.ShardBudgetError
		switch {
		case errors.As(err, &sbe):
			// The workflow's shard budget is exhausted at the gateway:
			// shed in the watchdogs' own shape, with the limiter's hint.
			rep.status = http.StatusTooManyRequests
			rep.retryAfter = max(1, int(sbe.RetryAfter/time.Second))
			rep.body, _ = json.Marshal(map[string]string{"workflow": sbe.Workflow, "error": sbe.Error()}) // cannot fail: two strings
		case rep.body == nil:
			// No backend could be reached.
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		// Relay what the node said: its status, its body, its Retry-After.
		if rep.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(rep.retryAfter))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rep.status)
		w.Write(rep.body)
	})
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/cluster", g.handleCluster)
	g.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go g.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// gauge renders a boolean as a 0/1 sample.
func gauge(on bool) float64 {
	if on {
		return 1
	}
	return 0
}

// handleMetrics serves the metrics exposition: routed requests,
// failover count and each backend's circuit-breaker state (1 = closed,
// 0 = tripped), in configured order. The dialect (0.0.4 vs OpenMetrics)
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
		"Circuit-breaker state per backend (1 = closed).")
	now := time.Now()
	for _, b := range g.backends {
		pw.Value("alloystack_gateway_backend_up", gauge(!b.isDown(now)), "backend", b.addr)
	}
	pw.Header("alloystack_gateway_backend_degraded", "gauge",
		"Backend self-reported SLO-degraded state (1 = ranked at half weight).")
	for _, m := range g.Cluster.Membership().Snapshot() {
		pw.Value("alloystack_gateway_backend_degraded", gauge(m.Alive && m.Info.Degraded), "backend", m.Addr)
	}
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
	pw.Histogram("alloystack_gateway_request_latency_seconds",
		"End-to-end gateway request latency including failovers.", g.lat)
	pw.BuildInfo("alloystack_build_info", metrics.CurrentBuild())
	pw.Finish()
}

// Stop shuts the gateway's HTTP server and health prober down and
// closes its idle backend connections.
func (g *Gateway) Stop() error {
	g.StopHealthLoop()
	for _, b := range g.backends {
		b.closeIdle()
	}
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
