package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
)

// hostileCommand claims a bulk length no allocation can satisfy.
const hostileCommand = "*1\r\n$9223372036854775807\r\n"

// A bulk length outside [0, maxBulk] is a protocol error on both sides
// of the wire, not a makeslice panic: the server drops the offending
// connection and keeps serving, and the client reports ErrProtocol.
func TestHostileBulkLength(t *testing.T) {
	for _, cmd := range []string{hostileCommand, "*1\r\n$-5\r\n", fmt.Sprintf("*1\r\n$%d\r\n", maxBulk+1)} {
		if _, err := readCommand(bufio.NewReader(bytes.NewReader([]byte(cmd)))); !errors.Is(err, ErrProtocol) {
			t.Errorf("readCommand(%q) err = %v, want ErrProtocol", cmd, err)
		}
	}

	s, c := newPair(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, hostileCommand); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("server answered %d byte(s) to a hostile length instead of hanging up", n)
	}
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatalf("Set after a hostile client: %v", err)
	}

	// A server that answers GET with a negative length.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readCommand(bufio.NewReader(conn)); err == nil {
			io.WriteString(conn, "$-5\r\n")
		}
	}()
	bad, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Get("k"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("Get of a $-5 reply: err = %v, want ErrProtocol", err)
	}
}

// FuzzKVCommand feeds the server's command decoder bytes it did not
// write. It must return a command or an error, never panic; a decoded
// command re-encoded by the client decodes to the same arguments. The
// seeds, hostile lengths included, are in testdata/fuzz/FuzzKVCommand.
func FuzzKVCommand(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		args, err := readCommand(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var wire bytes.Buffer
		if err := (&Client{w: bufio.NewWriter(&wire)}).send(args...); err != nil {
			t.Fatal(err)
		}
		again, err := readCommand(bufio.NewReader(&wire))
		if err != nil {
			t.Fatalf("re-encoded %q: %v", args, err)
		}
		if len(again) != len(args) {
			t.Fatalf("argc %d, re-decoded %d", len(args), len(again))
		}
		for i := range args {
			if !bytes.Equal(args[i], again[i]) {
				t.Fatalf("arg %d = %q, re-decoded %q", i, args[i], again[i])
			}
		}
	})
}
