package gateway

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/visor"
	"alloystack/internal/xfer"
)

// frameNode starts a fake backend speaking the watchdog's two surfaces:
// invoke frames on a connection upgraded at xfer.InvokePath, each
// answered by invoke, and plain HTTP on every other path, served by
// other (nil: 404). An invoke status of 0 hangs up without a reply.
// Cleanup closes the upgraded connections too, which the HTTP server
// forgets once they are hijacked.
func frameNode(t *testing.T, other http.HandlerFunc, invoke func(name, query string) (status, retryAfter int, body string)) string {
	t.Helper()
	var (
		mu    sync.Mutex
		conns []*xfer.InvokeConn
	)
	mux := http.NewServeMux()
	mux.HandleFunc(xfer.InvokePath, func(w http.ResponseWriter, r *http.Request) {
		c, err := xfer.AcceptInvoke(w, r)
		if err != nil {
			return
		}
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
		defer c.Close()
		for {
			name, query, err := c.Recv()
			if err != nil {
				return
			}
			status, retryAfter, body := invoke(name, query)
			if status == 0 || c.Reply(status, retryAfter, []byte(body)) != nil {
				return
			}
		}
	})
	if other != nil {
		mux.HandleFunc("/", other)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return strings.TrimPrefix(srv.URL, "http://")
}

// pipeBackend stands behind the gateway's dial seam: each dial is a
// net.Pipe whose far end reads invoke frames and hands each, numbered
// across every connection from 0, to serve with the connection; serve
// replies or writes whatever it likes, and returns false to hang up.
type pipeBackend struct {
	dials, frames atomic.Int64
	serve         func(frame int64, c *xfer.InvokeConn, raw net.Conn) bool
}

func (p *pipeBackend) dial(string) (*xfer.InvokeConn, error) {
	p.dials.Add(1)
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		c := xfer.NewInvokeConn(server)
		for {
			if _, _, err := c.Recv(); err != nil || !p.serve(p.frames.Add(1)-1, c, server) {
				return
			}
		}
	}()
	return xfer.NewInvokeConn(client), nil
}

// pipeGateway is a one-backend gateway over p.
func pipeGateway(t *testing.T, p *pipeBackend) (*Gateway, *backendState) {
	t.Helper()
	g, err := New("pipe:1")
	if err != nil {
		t.Fatal(err)
	}
	g.dial = p.dial
	t.Cleanup(func() { g.Stop() })
	return g, g.states["pipe:1"]
}

// A connection that fails once its reply has begun is not retried: the
// backend has the request and is answering it.
func TestNoRetryAfterFirstReplyByte(t *testing.T) {
	p := &pipeBackend{serve: func(frame int64, c *xfer.InvokeConn, raw net.Conn) bool {
		if frame == 0 {
			return c.Reply(http.StatusOK, 0, []byte(`{"workflow":"wf"}`)) == nil
		}
		raw.Write([]byte{0, 200, 0}) // the first three bytes of a 200's header
		return false
	}}
	g, b := pipeGateway(t, p)
	if _, err := g.exchange(b, "wf", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := g.exchange(b, "wf", ""); err == nil || errors.Is(err, xfer.ErrNoReply) {
		t.Fatalf("truncated reply: err = %v, want a failure after the first byte", err)
	}
	if d, f := p.dials.Load(), p.frames.Load(); d != 1 || f != 2 {
		t.Fatalf("dials = %d, frames = %d; want 1 and 2: the truncated exchange was retried", d, f)
	}
}

// A reused connection that dies before its reply is re-dialled once; a
// fresh one that does is not.
func TestRedialOnceBeforeFirstReplyByte(t *testing.T) {
	p := &pipeBackend{serve: func(frame int64, c *xfer.InvokeConn, _ net.Conn) bool {
		if frame == 1 || frame >= 3 {
			return false // hang up unanswered
		}
		return c.Reply(http.StatusOK, 0, []byte(`{"workflow":"wf"}`)) == nil
	}}
	g, b := pipeGateway(t, p)
	if _, err := g.exchange(b, "wf", ""); err != nil {
		t.Fatal(err)
	}
	// Frame 1 dies on the pooled connection, frame 2 succeeds on the re-dial.
	if _, err := g.exchange(b, "wf", ""); err != nil {
		t.Fatalf("reused connection lost before the reply: %v, want one re-dial to serve", err)
	}
	if d := p.dials.Load(); d != 2 {
		t.Fatalf("dials = %d, want 2", d)
	}
	// Frame 3 dies on the pooled connection and frame 4 on the re-dial:
	// that is the transport failure, with no third dial.
	if _, err := g.exchange(b, "wf", ""); !errors.Is(err, xfer.ErrNoReply) {
		t.Fatalf("err = %v, want ErrNoReply", err)
	}
	if d, f := p.dials.Load(), p.frames.Load(); d != 3 || f != 5 {
		t.Fatalf("dials = %d, frames = %d; want 3 and 5", d, f)
	}
}

// The per-request bound is the connection's deadline, and a request
// that outlives it is not sent again: the backend had it.
func TestRequestTimeoutIsConnectionDeadline(t *testing.T) {
	defer func(d time.Duration) { requestTimeout = d }(requestTimeout)
	requestTimeout = 50 * time.Millisecond
	hang := make(chan struct{})
	defer close(hang)
	p := &pipeBackend{serve: func(frame int64, c *xfer.InvokeConn, _ net.Conn) bool {
		if frame == 0 {
			return c.Reply(http.StatusOK, 0, []byte(`{"workflow":"wf"}`)) == nil
		}
		<-hang
		return false
	}}
	g, b := pipeGateway(t, p)
	if _, err := g.exchange(b, "wf", ""); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := g.exchange(b, "wf", ""); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("exchange took %v past a %v bound", d, requestTimeout)
	}
	if d, f := p.dials.Load(), p.frames.Load(); d != 1 || f != 2 {
		t.Fatalf("dials = %d, frames = %d; want 1 and 2: the timed-out request was re-sent", d, f)
	}
}

// A backend stopped and restarted on the same address costs no request:
// the pooled connection its stop closed is replaced by one dial, the
// breaker stays closed and the run executes once, on the new process.
func TestRestartedBackendIsRedialled(t *testing.T) {
	first := startBackend(t)
	addr := first.Addr()
	g, err := New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	g.Cooldown = time.Hour
	if _, err := g.Invoke("noop"); err != nil {
		t.Fatal(err)
	}
	if err := first.Stop(); err != nil {
		t.Fatal(err)
	}
	second := startBackendAt(t, addr)
	if _, err := g.Invoke("noop"); err != nil {
		t.Fatalf("first invoke after the restart: %v", err)
	}
	if !g.BackendStatus()[addr] {
		t.Error("the restart tripped the breaker")
	}
	if g.Failovers() != 0 {
		t.Errorf("failovers = %d, want 0", g.Failovers())
	}
	if first.Completed() != 1 || second.Completed() != 1 {
		t.Errorf("runs: %d before the restart, %d after; want 1 and 1", first.Completed(), second.Completed())
	}
}

// blockingBackend is a started watchdog whose one workflow, "block",
// waits until release is closed.
func blockingBackend(t *testing.T) (wd *visor.Watchdog, release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	r := visor.NewRegistry()
	r.RegisterNative("block", func(*asstd.Env, visor.FuncContext) error {
		<-release
		return nil
	})
	v := visor.New(r)
	if err := v.RegisterWorkflow(&dag.Workflow{Name: "block", Functions: []dag.FuncSpec{{Name: "block"}}}); err != nil {
		t.Fatal(err)
	}
	wd = visor.NewWatchdog(v)
	wd.OptionsFor = func(string) visor.RunOptions {
		o := visor.DefaultRunOptions()
		o.CostScale = 0
		o.BufHeapSize = 1 << 20
		return o
	}
	if _, err := wd.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wd.Stop() })
	return wd, release
}

// A watchdog's Stop that lands while a framed invoke is in flight lets
// it finish: the gateway gets its 200.
func TestStopDuringFramedInvoke(t *testing.T) {
	wd, release := blockingBackend(t)
	g, err := New(wd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	type result struct {
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		body, err := g.Invoke("block")
		done <- result{body, err}
	}()
	for wd.Inflight() != 1 {
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan error, 1)
	go func() { stopped <- wd.Stop() }()
	// Stop has landed once the listener is gone.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c, err := net.Dial("tcp", wd.Addr())
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("the watchdog still accepts connections after Stop")
		}
	}
	close(release)
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight invoke across Stop: %v", res.err)
	}
	var resp visor.InvokeResponse
	if err := json.Unmarshal(res.body, &resp); err != nil || resp.Workflow != "block" || resp.Error != "" {
		t.Fatalf("reply = %s (%v)", res.body, err)
	}
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
}

// TestNoCrossTalk: 16 goroutines invoke two workflows through one
// gateway over two watchdogs, so pooled connections pass between
// requests for either. Every reply names its own workflow and every
// invoke ran exactly once.
func TestNoCrossTalk(t *testing.T) {
	backends := []*visor.Watchdog{startBackend(t), startBackend(t)}
	for _, b := range backends {
		if err := b.Visor().RegisterWorkflow(&dag.Workflow{
			Name: "other", Functions: []dag.FuncSpec{{Name: "noop"}}}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := New(backends[0].Addr(), backends[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	const workers, each = 16, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				name := []string{"noop", "other"}[(w+i)%2]
				body, err := g.Invoke(name)
				if err != nil {
					t.Error(err)
					return
				}
				var resp visor.InvokeResponse
				if err := json.Unmarshal(body, &resp); err != nil || resp.Workflow != name || resp.Error != "" {
					t.Errorf("invoke %s answered %s (%v)", name, body, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := backends[0].Completed() + backends[1].Completed(); got != workers*each {
		t.Fatalf("runs = %d, want %d", got, workers*each)
	}
}

// Gateway.Stop closes its own idle connections, and only those: the
// backend sees them end without stopping itself.
func TestGatewayStopClosesItsConnections(t *testing.T) {
	var live atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := xfer.AcceptInvoke(w, r)
		if err != nil {
			return
		}
		live.Add(1)
		defer live.Add(-1)
		defer c.Close()
		for {
			if _, _, err := c.Recv(); err != nil || c.Reply(http.StatusOK, 0, []byte(`{}`)) != nil {
				return
			}
		}
	}))
	defer srv.Close()
	g, err := New(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Invoke("wf"); err != nil {
		t.Fatal(err)
	}
	if live.Load() != 1 {
		t.Fatalf("%d connections open after one invoke, want the pooled one", live.Load())
	}
	if err := g.Stop(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); live.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the pooled connection outlived Gateway.Stop")
		}
	}
}

// A request no invoke frame can carry is refused at the gateway with a
// 414, reaching no backend and tripping no breaker; one at the caps is
// carried.
func TestOversizedRequestIs414(t *testing.T) {
	var frames atomic.Int64
	addr := frameNode(t, nil, func(string, string) (int, int, string) {
		frames.Add(1)
		return http.StatusOK, 0, `{}`
	})
	g, err := New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	for _, req := range [][2]string{
		{strings.Repeat("w", xfer.MaxInvokeName+1), ""},
		{"wf", strings.Repeat("q", xfer.MaxInvokeQuery+1)},
	} {
		rep, err := g.route(req[0], req[1])
		if !errors.Is(err, ErrTooLong) || rep.status != http.StatusRequestURITooLong || !json.Valid(rep.body) {
			t.Fatalf("%d-byte name, %d-byte query: %d %s, %v; want a 414 with a JSON body",
				len(req[0]), len(req[1]), rep.status, rep.body, err)
		}
	}
	if frames.Load() != 0 || !g.BackendStatus()[addr] {
		t.Fatalf("frames = %d, breaker closed = %v; want none sent, breaker closed", frames.Load(), g.BackendStatus()[addr])
	}
	if _, err := g.InvokeQuery(strings.Repeat("w", xfer.MaxInvokeName), strings.Repeat("q", xfer.MaxInvokeQuery)); err != nil || frames.Load() != 1 {
		t.Fatalf("request at the caps: %v, frames = %d", err, frames.Load())
	}
}
