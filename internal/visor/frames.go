package visor

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"alloystack/internal/xfer"
)

// The gateway's hop: a gateway upgrades a connection once on
// xfer.InvokePath and then sends invoke frames over it, each answered
// by one reply frame rendered from the same answer the HTTP handlers
// render, so the body is the same bytes either way. Per connection, the
// handler's goroutine reads frames and a runner goroutine serves them;
// the reader keeps reading while a run is in flight, so a peer that
// hangs up cancels the run it carried, as r.Context() does over HTTP.

// framed is one upgraded connection.
type framed struct {
	c      *xfer.InvokeConn
	ctx    context.Context // cancelled when the connection is lost
	cancel context.CancelFunc
	reqs   chan frameReq
	busy   bool // a frame is being served; guarded by frameSet.mu

	// The runner's reply buffers, reused by every frame.
	ans  answer
	body bytes.Buffer
	enc  *json.Encoder
}

type frameReq struct{ name, query string }

// frameSet tracks a watchdog's framed connections: http.Server.Shutdown
// forgets a connection once it is hijacked, so Stop drains them here.
type frameSet struct {
	mu      sync.Mutex
	conns   map[*framed]struct{}
	closing bool
	runners sync.WaitGroup
}

// add registers c, or closes it and returns nil when the watchdog is
// stopping.
func (s *frameSet) add(c *xfer.InvokeConn) *framed {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		c.Close()
		return nil
	}
	f := &framed{c: c, reqs: make(chan frameReq)}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.enc = json.NewEncoder(&f.body)
	s.conns[f] = struct{}{}
	s.runners.Add(1)
	return f
}

// begin marks f busy for a frame it just read; false when the watchdog
// is stopping, and the frame is not served.
func (s *frameSet) begin(f *framed) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.busy = !s.closing
	return f.busy
}

// end marks f idle after its reply; false when the watchdog is
// stopping, and f is to be closed.
func (s *frameSet) end(f *framed) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.busy = false
	return !s.closing
}

func (s *frameSet) remove(f *framed) {
	s.mu.Lock()
	delete(s.conns, f)
	s.mu.Unlock()
	s.runners.Done()
}

// drain closes the idle connections at once, lets the busy ones finish
// their frame until ctx ends, then closes whatever is left.
func (s *frameSet) drain(ctx context.Context) {
	s.mu.Lock()
	s.closing = true
	for f := range s.conns {
		if !f.busy {
			f.c.Close()
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.runners.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for f := range s.conns {
			f.c.Close()
		}
		s.mu.Unlock()
	}
}

// handleFrames upgrades a gateway's connection to invoke frames and
// reads them until the connection ends.
func (wd *Watchdog) handleFrames(w http.ResponseWriter, r *http.Request) {
	c, err := xfer.AcceptInvoke(w, r)
	if err != nil {
		return
	}
	f := wd.frames.add(c)
	if f == nil {
		return
	}
	go wd.runFrames(f)
	for {
		name, query, err := c.Recv()
		if err != nil || !wd.frames.begin(f) {
			break
		}
		f.reqs <- frameReq{name, query}
	}
	f.cancel()
	c.Close()
	close(f.reqs)
}

// runFrames serves f's frames in turn, replying to each.
func (wd *Watchdog) runFrames(f *framed) {
	defer wd.frames.remove(f)
	for req := range f.reqs {
		f.ans = wd.serve(f.ctx, req.name, req.query, nil)
		err := f.c.Reply(f.ans.status, f.ans.retryAfter, f.render())
		if !wd.frames.end(f) || err != nil {
			f.c.Close()
		}
	}
}

// render is f.ans's reply body: the bytes writeAnswer sends over HTTP.
func (f *framed) render() []byte {
	f.body.Reset()
	if f.ans.text != "" {
		f.body.WriteString(f.ans.text)
		f.body.WriteByte('\n')
	} else {
		f.enc.Encode(&f.ans.resp)
	}
	return f.body.Bytes()
}
