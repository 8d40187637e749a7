package netstack

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"
)

// TestSimultaneousClose: both ends close at once; both must reach a
// terminal state without goroutine leaks or stuck readers.
func TestSimultaneousClose(t *testing.T) {
	s1, s2, _ := pair(t)
	l, err := s2.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	client, err := s1.Dial(Endpoint{Addr: s2.Addr(), Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); client.Close() }()
	go func() { defer wg.Done(); server.Close() }()
	wg.Wait()

	// Both sides eventually drain to EOF (or closed) for readers.
	deadline := time.Now().Add(5 * time.Second)
	for _, c := range []*Conn{client, server} {
		for {
			_, err := c.Read(make([]byte, 1))
			if err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("reader stuck after simultaneous close")
			}
		}
	}
}

// TestDuplicateSYNDoesNotDoubleAccept: a retransmitted SYN for an
// in-progress handshake must not create a second connection.
func TestDuplicateSYNDoesNotDoubleAccept(t *testing.T) {
	s1, s2, _ := pair(t)
	l, err := s2.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan *Conn, 4)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()
	c, err := s1.Dial(Endpoint{Addr: s2.Addr(), Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case <-conns:
	case <-time.After(2 * time.Second):
		t.Fatal("no accept")
	}
	// Manually replay the client's SYN (stale retransmission).
	seg := &segment{
		SrcPort: c.LocalAddr().Port,
		DstPort: 80,
		Seq:     c.iss,
		Flags:   flagSYN,
		Window:  0xFFFF,
	}
	s1.sendSegment(s1.Addr(), s2.Addr(), seg)
	select {
	case <-conns:
		t.Fatal("duplicate SYN produced a second accepted connection")
	case <-time.After(200 * time.Millisecond):
	}
}

// TestInterleavedBidirectionalTraffic: both directions stream at once.
func TestInterleavedBidirectionalTraffic(t *testing.T) {
	s1, s2, _ := pair(t)
	l, err := s2.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300_000
	serverErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		var wg sync.WaitGroup
		wg.Add(2)
		var rerr, werr error
		go func() {
			defer wg.Done()
			got := make([]byte, n)
			_, rerr = io.ReadFull(c, got)
			for i := range got {
				if got[i] != byte(i) {
					rerr = io.ErrUnexpectedEOF
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(i * 3)
			}
			_, werr = c.Write(payload)
		}()
		wg.Wait()
		if rerr != nil {
			serverErr <- rerr
			return
		}
		serverErr <- werr
	}()

	c, err := s1.Dial(Endpoint{Addr: s2.Addr(), Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	var clientRead []byte
	go func() {
		defer wg.Done()
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i)
		}
		c.Write(payload)
	}()
	go func() {
		defer wg.Done()
		clientRead = make([]byte, n)
		io.ReadFull(c, clientRead)
	}()
	wg.Wait()
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	for i := range clientRead {
		if clientRead[i] != byte(i*3) {
			t.Fatalf("client byte %d corrupted", i)
		}
	}
}

// TestManySequentialConnections: dial/close in a loop; ports and demux
// entries must be recycled, not leaked.
func TestManySequentialConnections(t *testing.T) {
	s1, s2, _ := pair(t)
	echoServer(t, s2, 7)
	l, err := s2.Listen(8)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c *Conn) {
				io.Copy(io.Discard, c)
				c.Close()
			}(c)
		}
	}()
	for i := 0; i < 50; i++ {
		c, err := s1.Dial(Endpoint{Addr: s2.Addr(), Port: 8})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		c.Close()
	}
	// Give TIME_WAIT teardown a moment, then check the demux table is
	// not holding all 50 connections.
	time.Sleep(3 * timeWait)
	s1.mu.Lock()
	live := len(s1.conns)
	s1.mu.Unlock()
	if live > 10 {
		t.Fatalf("demux table leaked: %d live entries", live)
	}
}

// TestLargeTransferWithHighLoss stresses retransmission hard.
func TestLargeTransferWithHighLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("slow under loss")
	}
	s1, s2, h := pair(t)
	h.LossRate = 0.15
	echoServer(t, s2, 7)
	c, err := s1.Dial(Endpoint{Addr: s2.Addr(), Port: 7})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	go c.Write(payload)
	got := make([]byte, len(payload))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(c, got)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("transfer under 15% loss did not complete")
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted under heavy loss")
	}
}

// TestDialSurvivesEarlyFIN: an acceptor that writes and closes at once
// can get its data and FIN to the dialer before the dialer wakes from
// the handshake wait, so the dialer's connection is already in
// CLOSE_WAIT when Dial checks it. That handshake succeeded: Dial must
// return the connection, and the dialer must read the bytes, then EOF.
func TestDialSurvivesEarlyFIN(t *testing.T) {
	s1, s2, _ := pair(t)
	l, err := s2.Listen(9)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Write([]byte("hello"))
			c.Close()
		}
	}()
	for i := 0; i < 100; i++ {
		c, err := s1.Dial(Endpoint{Addr: s2.Addr(), Port: 9})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		got, err := io.ReadAll(c)
		if err != nil || string(got) != "hello" {
			t.Fatalf("dial %d: read %q, %v; want \"hello\" then EOF", i, got, err)
		}
		c.Close()
	}
}
