package xfer

import (
	"errors"
	"net"
	"testing"

	"alloystack/internal/libos"
)

func TestServeSource(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		ServeSource(server, func(slot string) ([]byte, bool) {
			if slot == "spec:wc" {
				return []byte("payload"), true
			}
			return nil, false
		})
		server.Close()
	}()

	p := NewPeer(client)
	// Unlike a Bridge, a source GET does not consume: the same slot
	// serves repeatedly.
	for i := 0; i < 2; i++ {
		data, err := p.get("spec:wc")
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if string(data) != "payload" {
			t.Fatalf("get %d = %q", i, data)
		}
	}
	if _, err := p.get("spec:unknown"); !errors.Is(err, libos.ErrSlotMissing) {
		t.Fatalf("missing slot err = %v, want ErrSlotMissing", err)
	}
	// The source is read-only: a write is rejected as a protocol error,
	// and the connection stays usable.
	if err := p.set("spec:wc", []byte("overwrite")); !errors.Is(err, ErrNetProtocol) {
		t.Fatalf("set err = %v, want ErrNetProtocol", err)
	}
	if data, err := p.get("spec:wc"); err != nil || string(data) != "payload" {
		t.Fatalf("get after rejected write = %q, %v", data, err)
	}
}
