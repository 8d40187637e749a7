package gateway

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/metrics"
	"alloystack/internal/visor"
)

// startBackend spins one visor+watchdog with a trivial workflow;
// configure hooks run before it starts.
func startBackend(t *testing.T, configure ...func(*visor.Watchdog)) *visor.Watchdog {
	t.Helper()
	return startBackendAt(t, "127.0.0.1:0", configure...)
}

// startBackendAt is startBackend listening on addr.
func startBackendAt(t *testing.T, addr string, configure ...func(*visor.Watchdog)) *visor.Watchdog {
	t.Helper()
	r := visor.NewRegistry()
	r.RegisterNative("noop", func(env *asstd.Env, ctx visor.FuncContext) error {
		_, err := asstd.Now(env)
		return err
	})
	v := visor.New(r)
	if err := v.RegisterWorkflow(&dag.Workflow{
		Name:      "noop",
		Functions: []dag.FuncSpec{{Name: "noop"}},
	}); err != nil {
		t.Fatal(err)
	}
	wd := visor.NewWatchdog(v)
	wd.OptionsFor = func(string) visor.RunOptions {
		o := visor.DefaultRunOptions()
		o.CostScale = 0
		o.BufHeapSize = 1 << 20
		return o
	}
	for _, c := range configure {
		c(wd)
	}
	if _, err := wd.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wd.Stop() })
	return wd
}

func TestGatewayRequiresBackends(t *testing.T) {
	if _, err := New(); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v, want ErrNoBackends", err)
	}
}

func TestInvokeThroughGateway(t *testing.T) {
	b := startBackend(t)
	g, err := New(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	body, err := g.Invoke("noop")
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	var resp visor.InvokeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Workflow != "noop" || resp.Error != "" {
		t.Fatalf("response = %+v", resp)
	}
}

func TestRoundRobinAcrossBackends(t *testing.T) {
	b1 := startBackend(t)
	b2 := startBackend(t)
	g, err := New(b1.Addr(), b2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := g.Invoke("noop"); err != nil {
			t.Fatal(err)
		}
	}
	if b1.Completed() == 0 || b2.Completed() == 0 {
		t.Fatalf("load not balanced: %d / %d", b1.Completed(), b2.Completed())
	}
	if b1.Completed()+b2.Completed() != 6 {
		t.Fatalf("total = %d", b1.Completed()+b2.Completed())
	}
}

func TestFailoverToHealthyBackend(t *testing.T) {
	dead := "127.0.0.1:1" // nothing listens here
	b := startBackend(t)
	g, err := New(dead, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := g.Invoke("noop"); err != nil {
			t.Fatalf("failover invoke %d: %v", i, err)
		}
	}
	if b.Completed() != 4 {
		t.Fatalf("healthy backend completed %d", b.Completed())
	}
}

func TestAllBackendsDown(t *testing.T) {
	g, err := New("127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Invoke("noop"); !errors.Is(err, ErrAllDown) {
		t.Fatalf("err = %v, want ErrAllDown", err)
	}
}

func TestGatewayHTTPFrontEnd(t *testing.T) {
	b := startBackend(t)
	g, err := New(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	resp, err := http.Post("http://"+addr+"/invoke/noop", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	// The node's own answer is relayed: an unknown workflow is its 404.
	resp2, err := http.Post("http://"+addr+"/invoke/ghost", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost invocation status = %d, want the node's 404", resp2.StatusCode)
	}
}

// A backend answering 5xx is failed over and, at the threshold, marked
// down and excluded from the rotation.
func TestFailoverOnBackend5xx(t *testing.T) {
	sick := frameNode(t, nil, func(string, string) (int, int, string) {
		return http.StatusServiceUnavailable, 0, `{"error":"internal"}` + "\n"
	})
	healthy := startBackend(t)

	g, err := New(sick, healthy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	g.FailThreshold = 1
	g.Cooldown = time.Hour // keep it down for the whole test

	for i := 0; i < 6; i++ {
		body, err := g.Invoke("noop")
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
	}
	if healthy.Completed() != 6 {
		t.Fatalf("healthy backend served %d/6", healthy.Completed())
	}
	status := g.BackendStatus()
	if status[sick] {
		t.Fatal("5xx backend not marked down")
	}
	if !status[healthy.Addr()] {
		t.Fatal("healthy backend marked down")
	}
	if g.Failovers() == 0 {
		t.Fatal("no failovers counted")
	}
}

// When every backend answers 5xx the application response is surfaced,
// not ErrAllDown.
func TestAll5xxSurfacesBody(t *testing.T) {
	mk := func() string {
		return frameNode(t, nil, func(string, string) (int, int, string) {
			return http.StatusInternalServerError, 0, `{"error":"exploded"}` + "\n"
		})
	}
	g, err := New(mk(), mk())
	if err != nil {
		t.Fatal(err)
	}
	body, err := g.Invoke("noop")
	if err == nil {
		t.Fatal("5xx reported as success")
	}
	if errors.Is(err, ErrAllDown) {
		t.Fatalf("err = %v, want backend status error with body", err)
	}
	if !strings.Contains(string(body), "exploded") {
		t.Fatalf("body = %q", body)
	}
}

// A marked-down backend rejoins the rotation after its fault window and
// cooldown pass (the BackendDown chaos rule end to end).
func TestMarkedDownBackendRecovers(t *testing.T) {
	b1 := startBackend(t)
	b2 := startBackend(t)
	g, err := New(b1.Addr(), b2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	g.Cooldown = 20 * time.Millisecond
	g.Faults = faults.NewPlan(11, faults.BackendDown{Addr: b1.Addr(), Window: 1})

	// Every request during the window still succeeds via failover.
	for i := 0; i < 4; i++ {
		if _, err := g.Invoke("noop"); err != nil {
			t.Fatalf("invoke %d during window: %v", i, err)
		}
	}
	// Wait out the cooldown, then push enough traffic through that the
	// recovered b1 must serve some of it.
	time.Sleep(30 * time.Millisecond)
	for i := 0; i < 8; i++ {
		if _, err := g.Invoke("noop"); err != nil {
			t.Fatalf("invoke %d after recovery: %v", i, err)
		}
	}
	if b1.Completed() == 0 {
		t.Fatal("recovered backend never rejoined the rotation")
	}
	if b1.Completed()+b2.Completed() != 12 {
		t.Fatalf("lost invocations: %d + %d != 12", b1.Completed(), b2.Completed())
	}
}

// Active health checks revive a marked-down backend without waiting for
// invocation traffic to probe it.
func TestHealthCheckRevivesBackend(t *testing.T) {
	b := startBackend(t)
	g, err := New(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	g.Cooldown = time.Hour
	g.Faults = faults.NewPlan(5, faults.BackendDown{Addr: b.Addr(), Window: 1})

	if _, err := g.Invoke("noop"); err != nil {
		// The single-backend gateway still succeeds: the half-open pass
		// re-probes the backend, whose fault window has already passed.
		t.Fatalf("invoke during 1-request window: %v", err)
	}
	// Force a mark-down, then verify the prober revives it.
	g.backends[0].markDown(time.Hour, time.Now())
	if g.BackendStatus()[b.Addr()] {
		t.Fatal("backend not down")
	}
	status := g.CheckHealth()
	if !status[b.Addr()] {
		t.Fatal("health check did not revive the backend")
	}
}

func TestBackendsAccessor(t *testing.T) {
	g, err := New("a:1", "b:2")
	if err != nil {
		t.Fatal(err)
	}
	got := g.Backends()
	if len(got) != 2 || got[0] != "a:1" {
		t.Fatalf("Backends = %v", got)
	}
	got[0] = "mutated"
	if g.Backends()[0] != "a:1" {
		t.Fatal("Backends leaked internal slice")
	}
	_ = strings.TrimSpace("")
}

// TestGatewayMetricsEndpoint scrapes the gateway's /metrics surface:
// request and failover counters plus per-backend breaker gauges, served
// alongside the invoke front end and safe to hit concurrently with Stop.
func TestGatewayMetricsEndpoint(t *testing.T) {
	b := startBackend(t)
	g, err := New(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := http.Post("http://"+addr+"/invoke/noop", "application/json", nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"alloystack_gateway_requests_total 1",
		"alloystack_gateway_failovers_total 0",
		`alloystack_gateway_backend_up{backend="` + b.Addr() + `"} 1`,
		"alloystack_gateway_request_latency_seconds_count",
		"alloystack_build_info{",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	// Concurrent scrapes racing Stop: the -race gate enforces safety.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := http.Get("http://" + addr + "/metrics"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func httpGetString(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWatchdogDegradedFlowsToGateway wires a real watchdog whose SLO is
// breached into the gateway and follows the one degraded signal end to
// end: /cluster advertisement, member in the view, gauge, damped rank.
func TestWatchdogDegradedFlowsToGateway(t *testing.T) {
	wd := startBackend(t, func(wd *visor.Watchdog) {
		wd.Telemetry = visor.NewTelemetry(visor.TelemetryConfig{
			SamplerSeed: 1,
			SLO:         metrics.SLOConfig{Objective: time.Nanosecond},
		})
	})
	g, err := New(wd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	g.CheckHealth()
	if route := g.Cluster.Route("noop"); len(route) != 1 || route[0].Weight != 1 {
		t.Fatalf("route before the breach = %+v, want one member at full weight", route)
	}
	if _, err := g.Invoke("noop"); err != nil {
		t.Fatal(err)
	}
	g.CheckHealth()
	members := g.Cluster.Membership().Alive()
	if len(members) != 1 || !members[0].Info.Degraded {
		t.Fatalf("members = %+v, want the backend alive and degraded", members)
	}
	if route := g.Cluster.Route("noop"); route[0].Weight != 0.5 {
		t.Errorf("degraded member ranks at weight %v, want 0.5", route[0].Weight)
	}
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	want := `alloystack_gateway_backend_degraded{backend="` + wd.Addr() + `"} 1`
	if body := httpGetString(t, "http://"+addr+"/metrics"); !strings.Contains(body, want) {
		t.Fatalf("metrics missing %q:\n%s", want, body)
	}
}

// Ten cycles of fleet start, concurrent invokes through the gateway,
// Gateway.Stop, then each Watchdog.Stop. net/http's Shutdown gives a
// connection that was dialled and never used five seconds before it
// counts as idle, and under concurrency the client's transport dials
// such spares; Gateway.Stop has to close them, or a backend's graceful
// stop stalls for those five seconds (without the close, 8 of 8 runs of
// this test did).
func TestGatewayStopReleasesBackendConnections(t *testing.T) {
	for cycle := 0; cycle < 10; cycle++ {
		backends := []*visor.Watchdog{startBackend(t), startBackend(t)}
		g, err := New(backends[0].Addr(), backends[1].Addr())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 16; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					if _, err := g.Invoke("noop"); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := g.Stop(); err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			start := time.Now()
			if err := b.Stop(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("cycle %d: backend stop took %v after the gateway stopped", cycle, d)
			}
		}
	}
}
