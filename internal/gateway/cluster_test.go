package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/blockdev"
	"alloystack/internal/cluster"
	"alloystack/internal/core"
	"alloystack/internal/dag"
	"alloystack/internal/pool"
	"alloystack/internal/visor"
)

// TestAllDownCausesPerBackend is the ErrAllDown regression: a total
// outage must report every backend's cause, not just whichever error
// happened to be last.
func TestAllDownCausesPerBackend(t *testing.T) {
	dead1, dead2 := "127.0.0.1:1", "127.0.0.1:9"
	g, err := New(dead1, dead2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Invoke("noop")
	if !errors.Is(err, ErrAllDown) {
		t.Fatalf("err = %v, want ErrAllDown", err)
	}
	msg := err.Error()
	for _, addr := range []string{dead1, dead2} {
		if !strings.Contains(msg, addr) {
			t.Errorf("error drops backend %s's cause:\n%s", addr, msg)
		}
	}
}

// startClusterBackend boots a full visor node with the cluster surface:
// watchdog + pool manager + pre-warm builder, all on the watchdog's one
// listener. The "noop" native function backs every workflow the test
// registers.
func startClusterBackend(t *testing.T) *visor.Watchdog {
	t.Helper()
	r := visor.NewRegistry()
	r.RegisterNative("noop", func(env *asstd.Env, ctx visor.FuncContext) error {
		_, err := asstd.Now(env)
		return err
	})
	v := visor.New(r)
	wd := visor.NewWatchdog(v)
	wd.OptionsFor = func(string) visor.RunOptions {
		o := visor.DefaultRunOptions()
		o.CostScale = 0
		o.BufHeapSize = 1 << 20
		return o
	}
	wd.Pools = pool.NewManager()
	wd.PoolBuilder = func(w *dag.Workflow) (pool.Spec, pool.Config, bool) {
		return pool.Spec{
			Workflow: w.Name,
			Core: core.Options{
				OnDemand:    true,
				BufHeapSize: 1 << 20,
				DiskImage:   blockdev.NewMemDisk(8 << 20),
			},
			Modules: []string{"mm", "fdtab", "stdio", "time"},
		}, pool.Config{Min: 2, Max: 4, Seed: 1}, true
	}
	if _, err := wd.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		wd.Stop()
		wd.Pools.StopAll()
	})
	return wd
}

// registerNoop registers a workflow named name (backed by the noop
// function) on the node via its own pre-warm endpoint, which also
// builds and seals its pool — making the node the warm owner.
func warmOwner(t *testing.T, wd *visor.Watchdog, name string) {
	t.Helper()
	resp, err := http.Post("http://"+wd.Addr()+"/pools/prewarm", "application/json",
		strings.NewReader(fmt.Sprintf(`{"workflow":%q}`, name)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("self prewarm: %d %s", resp.StatusCode, body)
	}
}

// TestClusterWarmPlacement is the tentpole end to end: two visor
// nodes, one owning a workflow's spec and warm template; the gateway's
// health loop discovers the fleet, the rendezvous ring ranks the other
// node on top, the pre-warm sweep has that node pull the spec from the
// owner's watchdog address and build a pool there, and steady-state traffic then
// lands warm on the ring's top choice >90% of the time.
func TestClusterWarmPlacement(t *testing.T) {
	owner := startClusterBackend(t)
	target := startClusterBackend(t)

	g, err := New(owner.Addr(), target.Addr())
	if err != nil {
		t.Fatal(err)
	}
	g.CheckHealth()

	// Pick a workflow name the ring assigns to the node that will NOT
	// own the spec, so placement must do real work.
	name := ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("wf-%d", i)
		if route := g.Cluster.Route(cand); len(route) == 2 && route[0].Addr == target.Addr() {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no workflow name ranks the target node on top (hash degenerate)")
	}

	// The owner learns the workflow and seals its warm pool; the target
	// still knows nothing.
	if err := owner.Visor().RegisterWorkflow(&dag.Workflow{
		Name: name, Functions: []dag.FuncSpec{{Name: "noop"}}}); err != nil {
		t.Fatal(err)
	}
	warmOwner(t, owner, name)

	// One health-loop turn: membership refresh + pre-warm sweep. The
	// sweep must pull the spec from the owner's watchdog, build the
	// target's pool, and re-poll so routing sees the new template.
	g.CheckHealth()
	if got := g.Cluster.Stats().Prewarms; got != 1 {
		t.Fatalf("prewarms = %d, want 1", got)
	}
	if route := g.Cluster.Route(name); !route[0].Warm || route[0].Addr != target.Addr() {
		t.Fatalf("post-sweep route = %+v, want warm target on top", route[0])
	}

	// Steady state: traffic lands warm on the ring's top choice.
	const runs = 20
	warmResponses := 0
	for i := 0; i < runs; i++ {
		body, err := g.Invoke(name)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		var resp visor.InvokeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Error != "" {
			t.Fatalf("invoke %d: %s", i, resp.Error)
		}
		if resp.WarmStart {
			warmResponses++
		}
		// Clones are single-use; restock deterministically the way the
		// maintenance loop would.
		if p := target.Pools.Get(name); p != nil {
			p.Maintain(time.Now())
		}
	}
	if target.Completed() != runs {
		t.Errorf("ring top served %d/%d (stability broken)", target.Completed(), runs)
	}
	if rate := g.Cluster.Stats().WarmHitRate; rate < 0.9 {
		t.Errorf("warm placement hit rate = %.2f, want >= 0.9", rate)
	}
	if warmResponses < runs*9/10 {
		t.Errorf("warm-start responses = %d/%d, want >= 90%%", warmResponses, runs)
	}

	// The gateway's /cluster view serves the ring for asctl.
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	var view ClusterView
	if err := json.Unmarshal([]byte(httpGetString(t, "http://"+addr+"/cluster")), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Members) != 2 || len(view.Rings[name]) != 2 {
		t.Fatalf("cluster view = %+v", view)
	}

	// Cluster gauges join the exposition.
	metricsBody := httpGetString(t, "http://"+addr+"/metrics")
	for _, want := range []string{
		"alloystack_cluster_nodes 2",
		"alloystack_cluster_nodes_alive 2",
		"alloystack_cluster_prewarms_total 1",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// fakeClusterNode is a frameNode speaking the watchdog's cluster/invoke
// surface, with a controllable hot handler.
func fakeClusterNode(t *testing.T, hotStarted chan<- struct{}, hotRelease <-chan struct{}) string {
	t.Helper()
	var addr string
	addr = frameNode(t, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(cluster.NodeInfo{
			ID: addr, Capacity: 8,
			Workflows: []string{"hot", "cold"},
			Warm: []cluster.WarmAd{
				{Workflow: "hot", Warm: 1}, {Workflow: "cold", Warm: 1}},
		})
	}, func(name, _ string) (int, int, string) {
		if name == "hot" {
			hotStarted <- struct{}{}
			<-hotRelease
			return http.StatusOK, 0, `{"workflow":"hot"}`
		}
		return http.StatusOK, 0, `{"workflow":"cold"}`
	})
	return addr
}

// TestShardBudgetShedsHotWorkflow: a hot workflow saturating its shard
// budget is shed at the gateway with 429 + Retry-After while another
// workflow keeps being served.
func TestShardBudgetShedsHotWorkflow(t *testing.T) {
	hotStarted := make(chan struct{}, 1)
	hotRelease := make(chan struct{})
	backend := fakeClusterNode(t, hotStarted, hotRelease)

	g, err := New(backend)
	if err != nil {
		t.Fatal(err)
	}
	g.Cluster = cluster.NewRouter(cluster.Config{
		ShardBudgetFor: map[string]int{"hot": 1},
		RetryAfter:     7 * time.Second,
	})
	g.CheckHealth()
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	// Saturate the hot shard: one request holds its only token inside
	// the backend.
	firstDone := make(chan error, 1)
	go func() {
		_, err := g.Invoke("hot")
		firstDone <- err
	}()
	<-hotStarted

	// Library surface: the shed error is typed and sentinel-matchable.
	_, err = g.Invoke("hot")
	if !errors.Is(err, cluster.ErrShardBudget) {
		t.Fatalf("saturated invoke err = %v, want ErrShardBudget", err)
	}
	var sbe *cluster.ShardBudgetError
	if !errors.As(err, &sbe) || sbe.Workflow != "hot" {
		t.Fatalf("err = %v, want typed ShardBudgetError for hot", err)
	}

	// HTTP surface: 429 with the limiter's Retry-After.
	resp, err := http.Post("http://"+addr+"/invoke/hot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7", got)
	}

	// The second workflow's shard is untouched by the hot flood.
	for i := 0; i < 3; i++ {
		if _, err := g.Invoke("cold"); err != nil {
			t.Fatalf("cold invoke %d during hot saturation: %v", i, err)
		}
	}

	close(hotRelease)
	if err := <-firstDone; err != nil {
		t.Fatalf("token-holding invoke: %v", err)
	}
	// Token released: the hot shard admits again.
	go func() { <-hotStarted }()
	if _, err := g.Invoke("hot"); err != nil {
		t.Fatalf("post-release invoke: %v", err)
	}
	if shed := g.Cluster.Stats().ShardShed; shed != 2 {
		t.Errorf("shard shed = %d, want 2 (one library, one HTTP)", shed)
	}
}

// bouncingNode is a fake member that can be taken down and brought back
// on the same address: while down it aborts every HTTP request and hangs
// up on every invoke frame, which the gateway sees as a transport
// failure. invokes counts the invocations that reached it while up.
type bouncingNode struct {
	addr    string
	down    atomic.Bool
	invokes atomic.Int64
}

func newBouncingNode(t *testing.T) *bouncingNode {
	t.Helper()
	n := &bouncingNode{}
	n.addr = frameNode(t, func(w http.ResponseWriter, r *http.Request) {
		if n.down.Load() {
			panic(http.ErrAbortHandler)
		}
		json.NewEncoder(w).Encode(cluster.NodeInfo{ID: n.addr, Capacity: 4})
	}, func(string, string) (int, int, string) {
		if n.down.Load() {
			return 0, 0, ""
		}
		n.invokes.Add(1)
		return http.StatusOK, 0, `{"workflow":"wc"}`
	})
	return n
}

// TestClusterBreakerOpenDistinguished: under rendezvous ordering an open
// breaker sends a member to the back of the walk, not out of it. The
// ring's top choice is tried last while its breaker is open and still
// serves when it is the only one left; a single-node fleet that bounces
// serves the first request after it is back, with no cooldown to wait
// out and no health turn in between.
func TestClusterBreakerOpenDistinguished(t *testing.T) {
	a, b := newBouncingNode(t), newBouncingNode(t)
	g, err := New(a.addr, b.addr)
	if err != nil {
		t.Fatal(err)
	}
	g.Cooldown = time.Hour
	g.CheckHealth()
	route := g.Cluster.Route("wc")
	if len(route) != 2 {
		t.Fatalf("route = %+v, want both members ranked", route)
	}
	top, second := a, b
	if route[0].Addr == b.addr {
		top, second = b, a
	}

	// Open the top choice's breaker: the closed one serves, the open one
	// is not reached.
	g.states[top.addr].markDown(g.cooldown(), time.Now())
	if _, err := g.Invoke("wc"); err != nil {
		t.Fatal(err)
	}
	if top.invokes.Load() != 0 || second.invokes.Load() != 1 {
		t.Fatalf("served top=%d second=%d, want the closed breaker tried first", top.invokes.Load(), second.invokes.Load())
	}
	// Lose the closed one: the open breaker is probed, last, and serves.
	second.down.Store(true)
	if _, err := g.Invoke("wc"); err != nil {
		t.Fatalf("open breaker skipped instead of probed: %v", err)
	}
	if top.invokes.Load() != 1 {
		t.Fatalf("top served %d, want the half-open probe to land", top.invokes.Load())
	}

	// One node, bounced after it joined the view.
	n := newBouncingNode(t)
	g1, err := New(n.addr)
	if err != nil {
		t.Fatal(err)
	}
	g1.Cooldown = time.Hour
	g1.CheckHealth()
	n.down.Store(true)
	if _, err := g1.Invoke("wc"); !errors.Is(err, ErrAllDown) || !strings.Contains(err.Error(), n.addr) {
		t.Fatalf("err with the node down = %v, want ErrAllDown naming it", err)
	}
	if g1.BackendStatus()[n.addr] {
		t.Fatal("transport failure left the breaker closed")
	}
	n.down.Store(false)
	if _, err := g1.Invoke("wc"); err != nil {
		t.Fatalf("first request after the node is back: %v", err)
	}
	if !g1.BackendStatus()[n.addr] {
		t.Error("successful probe left the breaker open")
	}
}

// TestClusterFallsBackWithoutMembers: the router is there from New on.
// Before the first health turn nothing is known about the fleet, so the
// configured list is rotated and the router is told nothing; after it,
// the same workflow sticks to the ring's top choice and every served
// request is noted.
func TestClusterFallsBackWithoutMembers(t *testing.T) {
	b1, b2 := startBackend(t), startBackend(t)
	g, err := New(b1.Addr(), b2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := g.Invoke("noop"); err != nil {
			t.Fatalf("rotation invoke %d: %v", i, err)
		}
	}
	if b1.Completed() != 2 || b2.Completed() != 2 {
		t.Fatalf("before the first poll: served %d / %d, want the rotation's 2 / 2", b1.Completed(), b2.Completed())
	}
	if st := g.Cluster.Stats(); st.WarmHits+st.WarmMisses != 0 {
		t.Fatalf("rotation candidates were noted as placements: %+v", st)
	}

	g.CheckHealth()
	top := b1
	if g.Cluster.Route("noop")[0].Addr == b2.Addr() {
		top = b2
	}
	before := top.Completed()
	for i := 0; i < 4; i++ {
		if _, err := g.Invoke("noop"); err != nil {
			t.Fatalf("rendezvous invoke %d: %v", i, err)
		}
	}
	if got := top.Completed() - before; got != 4 {
		t.Fatalf("after the poll: ring top served %d/4", got)
	}
	if st := g.Cluster.Stats(); st.WarmHits+st.WarmMisses != 4 {
		t.Fatalf("placements noted = %d, want 4", st.WarmHits+st.WarmMisses)
	}
}

// TestCheckHealthOneRequestPerBackend: a health turn is one GET /cluster
// per backend and nothing else; a reply that does not decode opens the
// breaker and marks the member dead.
func TestCheckHealthOneRequestPerBackend(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string][]string) // backend -> request paths
	node := func(body string) string {
		var addr string
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[addr] = append(seen[addr], r.Method+" "+r.URL.Path)
			mu.Unlock()
			io.WriteString(w, body)
		}))
		t.Cleanup(srv.Close)
		addr = strings.TrimPrefix(srv.URL, "http://")
		return addr
	}
	good, bad := node(`{"id":"n1","capacity":4}`), node("ok inflight=0\n")
	g, err := New(good, bad)
	if err != nil {
		t.Fatal(err)
	}
	status := g.CheckHealth()
	for _, addr := range []string{good, bad} {
		if got := seen[addr]; len(got) != 1 || got[0] != "GET /cluster" {
			t.Errorf("backend %s saw %v, want exactly one GET /cluster", addr, got)
		}
	}
	if !status[good] || status[bad] {
		t.Errorf("status = %v, want the decodable reply up and the other down", status)
	}
	if st := g.Cluster.Stats(); st.Nodes != 2 || st.NodesAlive != 1 {
		t.Errorf("view = %+v, want 2 members, 1 alive", st)
	}
}
