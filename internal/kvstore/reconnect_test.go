package kvstore

import (
	"bytes"
	"errors"
	"testing"

	"alloystack/internal/faults"
)

// The client must survive a server restart on the same address: the
// dropped connection is redialled and the failed command replayed.
func TestReconnectAfterServerRestart(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(addr)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	t.Cleanup(func() { s2.Close() })

	if err := c.Set("k", []byte("v2")); err != nil {
		t.Fatalf("Set after restart: %v", err)
	}
	got, err := c.Get("k")
	if err != nil || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("Get after restart: %q, %v", got, err)
	}
	if c.Reconnects() == 0 {
		t.Fatal("no reconnect recorded")
	}
}

// An injected KVDropConn plan severs the connection every N ops; the
// client absorbs every drop transparently.
func TestInjectedConnDropsAreTransparent(t *testing.T) {
	s, c := newPair(t)
	c.Faults = faults.NewPlan(3, faults.KVDropConn{AfterOps: 3})

	for i := 0; i < 12; i++ {
		key := string(rune('a' + i))
		if err := c.Set(key, []byte{byte(i)}); err != nil {
			t.Fatalf("Set %d under chaos: %v", i, err)
		}
		got, err := c.Get(key)
		if err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("Get %d under chaos: %v %v", i, got, err)
		}
	}
	if c.Reconnects() < 4 {
		t.Fatalf("reconnects = %d, want ≥ 4 (24 ops / drop every 3)", c.Reconnects())
	}
	if s.Keys() != 12 {
		t.Fatalf("keys = %d", s.Keys())
	}
	// The injected drops are on the plan's event log.
	if len(c.Faults.Events()) < 4 {
		t.Fatalf("events = %d", len(c.Faults.Events()))
	}
}

// Application-level errors must not trigger reconnects.
func TestNotFoundNotRetried(t *testing.T) {
	_, c := newPair(t)
	if _, err := c.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if c.Reconnects() != 0 {
		t.Fatalf("reconnects = %d on ErrNotFound", c.Reconnects())
	}
}

// A permanently unreachable server exhausts MaxReconnects and surfaces
// the transport error instead of spinning forever.
func TestReconnectBudgetExhausted(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s.Close() // gone for good: the port is freed and nothing listens

	c.MaxReconnects = 2
	if err := c.Set("k", []byte("v")); err == nil {
		t.Fatal("Set against a dead server succeeded")
	}
}
