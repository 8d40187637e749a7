package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"alloystack/internal/cluster"
	"alloystack/internal/xfer"
)

// scripted is a socket-free fleet behind the gateway's dial seam: each
// host serves invoke frames over net.Pipe from its script, one entry per
// try (the last entry repeats). An entry is a status, or 0 for a
// transport failure: a refused dial, or a hang-up on a pooled
// connection, after which the gateway's re-dial takes the entry. 429s
// carry the host's Retry-After.
type scripted struct {
	mu         sync.Mutex
	script     map[string][]int
	retryAfter map[string]int
	tried      []string
}

// head is host's next entry.
func (s *scripted) head(host string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.script[host][0]
}

// try records a try on host and takes its entry.
func (s *scripted) try(host string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tried = append(s.tried, host)
	status := s.script[host][0]
	if len(s.script[host]) > 1 {
		s.script[host] = s.script[host][1:]
	}
	return status
}

func (s *scripted) dial(host string) (*xfer.InvokeConn, error) {
	if s.head(host) == 0 {
		s.try(host)
		return nil, errors.New("connection refused")
	}
	client, server := net.Pipe()
	go s.serve(host, xfer.NewInvokeConn(server))
	return xfer.NewInvokeConn(client), nil
}

func (s *scripted) serve(host string, c *xfer.InvokeConn) {
	defer c.Close()
	for {
		if _, _, err := c.Recv(); err != nil || s.head(host) == 0 {
			return
		}
		status := s.try(host)
		if err := c.Reply(status, s.retryAfter[host], fmt.Appendf(nil, "%s said %d", host, status)); err != nil {
			return
		}
	}
}

// TestWalk pins the failover policy without sockets: ordered candidates,
// a breaker state and a scripted outcome per candidate in; the tried
// sequence, the failover count and the surfaced reply or causes out.
func TestWalk(t *testing.T) {
	const a, b, c = "a:1", "b:1", "c:1"
	for _, tc := range []struct {
		name      string
		cands     []string
		open      []string // breakers open when the request arrives
		threshold int      // FailThreshold (0 = default 3)
		script    map[string][]int
		hints     map[string]int

		tried     string
		failovers int64
		status    int    // of the surfaced reply; 0 = none
		from      string // the backend whose reply is surfaced
		hint      int
		allDown   bool
	}{
		{name: "first choice serves",
			cands: []string{a, b}, script: map[string][]int{a: {200}, b: {200}},
			tried: "a:1", status: 200, from: a},
		{name: "5xx fails over",
			cands: []string{a, b}, script: map[string][]int{a: {500}, b: {200}},
			tried: "a:1 b:1", failovers: 1, status: 200, from: b},
		{name: "4xx stops the search",
			cands: []string{a, b}, script: map[string][]int{a: {404}, b: {200}},
			tried: "a:1", status: 404, from: a},
		{name: "open breaker goes last and is not reached",
			cands: []string{a, b, c}, open: []string{a}, script: map[string][]int{a: {200}, b: {200}, c: {200}},
			tried: "b:1", status: 200, from: b},
		{name: "open breaker is probed once the closed ones are spent",
			cands: []string{a, b}, open: []string{a}, script: map[string][]int{a: {200}, b: {0}},
			tried: "b:1 a:1", failovers: 1, status: 200, from: a},
		{name: "half-open probes keep candidate order",
			cands: []string{a, b, c}, open: []string{a, c}, script: map[string][]int{a: {0}, b: {0}, c: {0}},
			tried: "b:1 a:1 b:1 c:1", failovers: 3, allDown: true},
		{name: "a breaker tripped by this request is probed again",
			cands: []string{a}, script: map[string][]int{a: {0, 200}},
			tried: "a:1 a:1", failovers: 1, status: 200, from: a},
		{name: "5xx at the threshold trips and is probed again",
			cands: []string{a}, threshold: 1, script: map[string][]int{a: {503, 200}},
			tried: "a:1 a:1", failovers: 1, status: 200, from: a},
		{name: "5xx below the threshold is not tried twice",
			cands: []string{a, b}, script: map[string][]int{a: {500}, b: {502}},
			tried: "a:1 b:1", failovers: 1, status: 502, from: b},
		{name: "nothing reachable joins every cause under ErrAllDown",
			cands: []string{a, b}, script: map[string][]int{a: {0}, b: {0}},
			tried: "a:1 b:1 a:1 b:1", failovers: 3, allDown: true},
		{name: "the last reply a backend sent outlives later transport failures",
			cands: []string{a, b}, script: map[string][]int{a: {500}, b: {0}},
			tried: "a:1 b:1 b:1", failovers: 2, status: 500, from: a},
		{name: "fleet-wide shed surfaces 429 with the largest hint",
			cands: []string{a, b, c}, script: map[string][]int{a: {429}, b: {429}, c: {429}},
			hints: map[string]int{a: 3, b: 7, c: 2},
			tried: "a:1 b:1 c:1", failovers: 2, status: 429, from: c, hint: 7},
		{name: "shed does not trip the breaker",
			cands: []string{a}, threshold: 1, script: map[string][]int{a: {429}},
			tried: "a:1", status: 429, from: a},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(a, b, c)
			if err != nil {
				t.Fatal(err)
			}
			rt := &scripted{script: tc.script, retryAfter: tc.hints}
			g.dial = rt.dial
			t.Cleanup(func() { g.Stop() })
			g.Cooldown, g.FailThreshold = time.Hour, tc.threshold
			for _, addr := range tc.open {
				g.states[addr].markDown(g.cooldown(), time.Now())
			}
			cands := make([]cluster.Candidate, len(tc.cands))
			for i, addr := range tc.cands {
				cands[i].Addr = addr
			}

			rep, err := g.walk(cands, false, "wf", "")
			if got := strings.Join(rt.tried, " "); got != tc.tried {
				t.Errorf("tried %q, want %q", got, tc.tried)
			}
			if got := g.Failovers(); got != tc.failovers {
				t.Errorf("failovers = %d, want %d", got, tc.failovers)
			}
			if errors.Is(err, ErrAllDown) != tc.allDown {
				t.Errorf("err = %v, want ErrAllDown: %v", err, tc.allDown)
			}
			if tc.allDown {
				for _, addr := range tc.cands {
					if !strings.Contains(err.Error(), addr) {
						t.Errorf("ErrAllDown drops %s's cause: %v", addr, err)
					}
				}
			}
			if (err == nil) != (tc.status == 200) {
				t.Errorf("err = %v with status %d", err, tc.status)
			}
			wantBody := ""
			if tc.status != 0 {
				wantBody = fmt.Sprintf("%s said %d", tc.from, tc.status)
			}
			if rep.status != tc.status || string(rep.body) != wantBody || rep.retryAfter != tc.hint {
				t.Errorf("reply = %d %q retry-after %d, want %d %q retry-after %d",
					rep.status, rep.body, rep.retryAfter, tc.status, wantBody, tc.hint)
			}
		})
	}
}

// TestStatusRelay drives a two-node fleet whose every node answers one
// fixed status through the HTTP front end, once under each ordering —
// never polled (rotation) and polled (rendezvous) — and requires the
// node's status, body and Retry-After back, identically from the two.
func TestStatusRelay(t *testing.T) {
	for _, status := range []int{200, 403, 404, 409, 429, 500, 501, 504} {
		t.Run(fmt.Sprint(status), func(t *testing.T) {
			body := fmt.Sprintf(`{"workflow":"wf","error":"node says %d"}`+"\n", status)
			node := func() string {
				return frameNode(t, func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/cluster" {
						io.WriteString(w, `{"id":"`+r.Host+`"}`)
						return
					}
					http.NotFound(w, r)
				}, func(string, string) (int, int, string) {
					if status == http.StatusTooManyRequests {
						return status, 4, body
					}
					return status, 0, body
				})
			}
			n1, n2 := node(), node()
			wantHint := ""
			if status == http.StatusTooManyRequests {
				wantHint = "4"
			}
			for _, polled := range []bool{false, true} {
				g, err := New(n1, n2)
				if err != nil {
					t.Fatal(err)
				}
				if polled {
					g.CheckHealth()
				}
				if got := len(g.Cluster.Route("wf")) > 0; got != polled {
					t.Fatalf("polled=%v but rendezvous ordering in use: %v", polled, got)
				}
				addr, err := g.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post("http://"+addr+"/invoke/wf", "application/json", nil)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				g.Stop()
				if resp.StatusCode != status || string(got) != body || resp.Header.Get("Retry-After") != wantHint {
					t.Errorf("polled=%v: got %d %q Retry-After %q, want %d %q Retry-After %q", polled,
						resp.StatusCode, got, resp.Header.Get("Retry-After"), status, body, wantHint)
				}
			}
		})
	}
}

// TestNothingReachableIs502: 502 is kept for the one case with no node's
// answer to relay.
func TestNothingReachableIs502(t *testing.T) {
	g, err := New("127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	resp, err := http.Post("http://"+addr+"/invoke/wf", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
}
