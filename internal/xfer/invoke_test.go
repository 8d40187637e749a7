package xfer

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// invokeServer serves invoke frames behind an HTTP server configured by
// configure, answering each with 200 and the workflow's name.
func invokeServer(t *testing.T, configure func(*http.Server)) string {
	t.Helper()
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := AcceptInvoke(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			name, _, err := c.Recv()
			if err != nil || c.Reply(http.StatusOK, 0, []byte(name)) != nil {
				return
			}
		}
	}))
	configure(srv.Config)
	srv.Start()
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// An upgraded connection outlives the deadlines the HTTP server set to
// read and answer the upgrade request: frames keep flowing on it after
// every server timeout has passed.
func TestAcceptInvokeClearsServerDeadlines(t *testing.T) {
	const timeout = 50 * time.Millisecond
	addr := invokeServer(t, func(s *http.Server) {
		s.ReadHeaderTimeout, s.ReadTimeout, s.WriteTimeout = timeout, timeout, timeout
	})
	c, err := DialInvoke(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		rep, err := c.Invoke("wf", "")
		if err != nil || rep.Status != http.StatusOK || string(rep.Body) != "wf" {
			t.Fatalf("invoke %d: %d %q, %v", i, rep.Status, rep.Body, err)
		}
		time.Sleep(3 * timeout)
	}
}

// A peer that does not speak the invoke hop refuses the upgrade, and the
// first invoke says so instead of reading its HTTP reply as a frame.
func TestInvokeRefusedUpgrade(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	c, err := DialInvoke(strings.TrimPrefix(srv.URL, "http://"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Invoke("wf", ""); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("err = %v, want the refused upgrade's 404", err)
	}
}
