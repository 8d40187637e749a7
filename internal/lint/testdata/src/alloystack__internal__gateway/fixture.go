// Package gateway is a goleak fixture: the directory name claims the
// import path alloystack/internal/gateway, which is in goleak's
// long-lived scope, so every `go` statement here must prove a
// termination path.
package gateway

import (
	"context"
	"time"
)

// Server is the fixture's long-lived component.
type Server struct {
	stop  chan struct{}
	tasks chan int
}

// leakyForever spins with no exit and no stop signal.
func (s *Server) leakyForever() {
	go func() { // want "goroutine has no reachable termination path"
		for {
			s.work(0)
		}
	}()
}

// leakyTimerOnly has a timer wakeup but no way out: a ticker wakes the
// loop, it never stops it.
func (s *Server) leakyTimerOnly() {
	t := time.NewTicker(time.Second)
	go func() { // want "goroutine has no reachable termination path"
		for {
			<-t.C
			s.work(0)
		}
	}()
}

// leakyNamed spawns a module-declared function; the loop lives in the
// callee's body, resolved through the call graph.
func (s *Server) leakyNamed() {
	go s.spinNamed() // want "goroutine has no reachable termination path"
}

func (s *Server) spinNamed() {
	for {
		s.work(1)
	}
}

// ctxLoop exits via ctx.Done: quiet.
func (s *Server) ctxLoop(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case n := <-s.tasks:
				s.work(n)
			}
		}
	}()
}

// stopChanLoop exits via a project stop channel: quiet.
func (s *Server) stopChanLoop() {
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.work(0)
			}
		}
	}()
}

// rangeLoop drains a channel until the owner closes it: quiet (the
// range has an exit edge by construction).
func (s *Server) rangeLoop() {
	go func() {
		for n := range s.tasks {
			s.work(n)
		}
	}()
}

// boundedBody is straight-line run-to-completion work: quiet.
func (s *Server) boundedBody() {
	go func() {
		s.work(1)
		s.work(2)
	}()
}

// acceptLoop blocks on a closeable source and returns on error: quiet.
func (s *Server) acceptLoop(l *listener) {
	go func() {
		for {
			n, err := l.Accept()
			if err != nil {
				return
			}
			s.work(n)
		}
	}()
}

// waivedSpin keeps an acknowledged busy-loop with an explicit waiver.
func (s *Server) waivedSpin() {
	go func() { //asvet:allow goleak -- fixture-approved calibration spin
		for {
			s.work(0)
		}
	}()
}

type listener struct{ closed chan struct{} }

func (l *listener) Accept() (int, error) {
	<-l.closed
	return 0, nil
}

func (s *Server) work(int) {}

// ctxErrPoll polls ctx.Err() instead of receiving from ctx.Done():
// quiet, the poll is a termination source.
func (s *Server) ctxErrPoll(ctx context.Context) {
	go func() {
		for {
			if ctx.Err() != nil {
				return
			}
			s.work(0)
		}
	}()
}
