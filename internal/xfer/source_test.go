package xfer

import (
	"bytes"
	"errors"
	"io"
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

	// A source GET does not consume: the same slot serves repeatedly.
	for i := 0; i < 2; i++ {
		data, err := FetchFrom(client, "spec:wc")
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if string(data) != "payload" {
			t.Fatalf("get %d = %q", i, data)
		}
	}
	if _, err := FetchFrom(client, "spec:unknown"); !errors.Is(err, libos.ErrSlotMissing) {
		t.Fatalf("missing slot err = %v, want ErrSlotMissing", err)
	}
}

// The source is read-only: a frame with any op but GET ends the
// connection with ErrNetProtocol, and the payload it claims is neither
// read nor allocated.
func TestServeSourceRefusesClaimedSet(t *testing.T) {
	const sent = 1 << 20
	// A SET for slot "x" whose payload length claims maxFrame, followed
	// by the first MiB of that payload.
	frame := append([]byte{'S', 0, 0, 0, 1, 'x'}, claim()...)
	frame = append(frame, make([]byte, sent)...)
	in := bytes.NewReader(frame)
	var reply bytes.Buffer
	var err error
	if n := allocated(func() {
		err = ServeSource(struct {
			io.Reader
			io.Writer
		}{in, &reply}, func(string) ([]byte, bool) {
			t.Error("lookup called for a SET frame")
			return nil, false
		})
	}); n >= 1<<20 {
		t.Errorf("ServeSource of a SET claiming %d bytes allocated %d bytes", maxFrame, n)
	}
	if !errors.Is(err, ErrNetProtocol) {
		t.Fatalf("ServeSource err = %v, want ErrNetProtocol", err)
	}
	if in.Len() < sent {
		t.Errorf("ServeSource read %d bytes of the claimed payload", sent-in.Len())
	}
	if reply.Len() != 0 {
		t.Errorf("ServeSource answered a SET with %q", reply.Bytes())
	}
}
