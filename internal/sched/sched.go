// Package sched is the admission layer in front of the Visor. The
// ROADMAP's north star is production-scale traffic, and the watchdog
// used to spawn one goroutine per request with no bound: a burst grew
// inflight work without limit and every request degraded together.
//
// The scheduler replaces that with explicit admission control:
//
//   - per-workflow FIFO queues, drained by a deficit-weighted
//     round-robin picker so one hot workflow cannot starve the rest;
//   - a global concurrency limit bounding simultaneous WFD boots;
//   - per-workflow queue-depth caps — requests beyond the cap are shed
//     immediately (the watchdog turns ErrShed into 429 + Retry-After);
//   - deadline awareness — a request whose estimated queue wait already
//     exceeds its deadline is rejected at admission, and a queued
//     request whose deadline passes is rejected when picked, instead of
//     burning a WFD boot on a doomed run.
//
// All decisions are made under one mutex in arrival/completion order,
// so given a deterministic arrival sequence the grant order is
// deterministic too — chaos tests fingerprint it.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Errors returned by Admit.
var (
	// ErrShed marks a request rejected because its workflow queue is
	// full. HTTP layers should map it to 429 Too Many Requests.
	ErrShed = errors.New("sched: queue full, request shed")
	// ErrDeadline marks a request that could not finish inside its
	// deadline: the estimated queue wait already exceeds it at
	// admission, or the deadline passed while queued.
	ErrDeadline = errors.New("sched: deadline unmeetable")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("sched: scheduler closed")
)

// Config sizes the scheduler.
type Config struct {
	// MaxConcurrent bounds requests running at once (default 16).
	MaxConcurrent int
	// MaxQueue caps each workflow's wait queue (zero means the default,
	// 64); arrivals beyond the cap are shed. Negative means no queue: an
	// arrival that finds every slot taken is shed at once.
	MaxQueue int
	// Weights gives per-workflow drain weights (default 1). A workflow
	// with weight 2 is granted twice per round-robin cycle of a
	// weight-1 workflow when both have backlog.
	Weights map[string]int //asvet:allow unreachable -- weighted-fair drain; asvisor has no flag for it yet, sched's tests pin the arithmetic
	// Clock is the time source (tests inject a fake; default time.Now).
	Clock func() time.Time
}

// Scheduler is the admission queue. Create with New.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	closed   bool
	inflight int
	queues   map[string]*queue
	order    []string // sorted workflow names, the round-robin cycle
	cursor   int      // next queue to consider in the cycle

	// serviceEWMA estimates one request's service time for wait
	// prediction; updated on every Release.
	serviceEWMA time.Duration

	admitted  int64
	shed      int64
	deadlined int64
	waitMax   time.Duration
}

// queue is one workflow's FIFO backlog.
type queue struct {
	name    string
	weight  int
	deficit int
	waiters []*waiter
}

// waiter is one queued request.
type waiter struct {
	ready    chan error // closed via send when granted or rejected
	enqueued time.Time
	deadline time.Time // zero = none
	granted  bool
}

// Grant is an admitted request's slot. Callers must Release exactly once.
type Grant struct {
	s     *Scheduler
	start time.Time
	once  sync.Once

	// Wait is how long the request queued before being granted.
	Wait time.Duration
}

// New builds a Scheduler.
func New(cfg Config) *Scheduler {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 16
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	} else if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now //asvet:allow wallclock -- the approved clock injection point
	}
	return &Scheduler{
		cfg:    cfg,
		queues: make(map[string]*queue),
	}
}

// Admit asks for a slot to run workflow. It blocks until the request is
// granted, shed, deadlined, or ctx is cancelled. deadline, when > 0, is
// the request's end-to-end budget: if the estimated queue wait already
// exceeds it, Admit rejects immediately with ErrDeadline.
func (s *Scheduler) Admit(ctx context.Context, workflow string, deadline time.Duration) (*Grant, error) {
	now := s.cfg.Clock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}

	// Fast path: a free slot and no backlog ahead of us.
	if s.inflight < s.cfg.MaxConcurrent && s.backlogLocked() == 0 {
		s.inflight++
		s.admitted++
		s.mu.Unlock()
		return &Grant{s: s, start: now}, nil
	}

	q := s.queueLocked(workflow)
	if len(q.waiters) >= s.cfg.MaxQueue {
		s.shed++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s depth %d", ErrShed, workflow, s.cfg.MaxQueue)
	}
	if deadline > 0 {
		if est := s.estimateWaitLocked(); est > deadline {
			s.deadlined++
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s estimated wait %v > deadline %v",
				ErrDeadline, workflow, est.Round(time.Millisecond), deadline)
		}
	}

	w := &waiter{ready: make(chan error, 1), enqueued: now}
	if deadline > 0 {
		w.deadline = now.Add(deadline)
	}
	q.waiters = append(q.waiters, w)
	s.mu.Unlock()

	select {
	case err := <-w.ready:
		if err != nil {
			return nil, err
		}
		granted := s.cfg.Clock()
		g := &Grant{s: s, start: granted, Wait: granted.Sub(now)}
		s.mu.Lock()
		if g.Wait > s.waitMax {
			s.waitMax = g.Wait
		}
		s.mu.Unlock()
		return g, nil
	case <-ctx.Done():
		s.mu.Lock()
		// The grant may have raced the cancellation; if it did, give the
		// slot back and dispatch the next waiter.
		if w.granted {
			s.mu.Unlock()
			<-w.ready
			s.release(0)
			return nil, ctx.Err()
		}
		s.removeLocked(q, w)
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Release returns the Grant's slot and dispatches the next waiter.
func (g *Grant) Release() {
	g.once.Do(func() {
		g.s.release(g.s.cfg.Clock().Sub(g.start))
	})
}

func (s *Scheduler) release(service time.Duration) {
	s.mu.Lock()
	s.inflight--
	if service > 0 {
		// EWMA with alpha 1/4: stable under bursts, adapts in a few
		// completions.
		if s.serviceEWMA == 0 {
			s.serviceEWMA = service
		} else {
			s.serviceEWMA += (service - s.serviceEWMA) / 4
		}
	}
	s.dispatchLocked()
	s.mu.Unlock()
}

// dispatchLocked grants queued waiters while slots are free, draining
// queues deficit-round-robin in sorted-name order. Expired waiters are
// rejected instead of granted. Caller holds s.mu.
func (s *Scheduler) dispatchLocked() {
	if len(s.order) == 0 {
		return
	}
	now := s.cfg.Clock()
	// A full cycle with no grant and no backlog means we are done; the
	// guard bounds the scan when every queue is empty.
	idle := 0
	for s.inflight < s.cfg.MaxConcurrent && idle < len(s.order) {
		q := s.queues[s.order[s.cursor%len(s.order)]]
		if len(q.waiters) == 0 {
			q.deficit = 0
			s.cursor++
			idle++
			continue
		}
		if q.deficit <= 0 {
			q.deficit += q.weight
		}
		for q.deficit > 0 && len(q.waiters) > 0 && s.inflight < s.cfg.MaxConcurrent {
			w := q.waiters[0]
			q.waiters = q.waiters[1:]
			if !w.deadline.IsZero() && now.After(w.deadline) {
				s.deadlined++
				w.ready <- fmt.Errorf("%w: %s queued past deadline", ErrDeadline, q.name)
				continue
			}
			q.deficit--
			s.inflight++
			s.admitted++
			w.granted = true
			w.ready <- nil
		}
		s.cursor++
		idle = 0
	}
}

// backlogLocked counts queued waiters across all workflows.
func (s *Scheduler) backlogLocked() int {
	n := 0
	for _, q := range s.queues {
		n += len(q.waiters)
	}
	return n
}

// queueLocked returns (creating if needed) the workflow's queue.
func (s *Scheduler) queueLocked(workflow string) *queue {
	q, ok := s.queues[workflow]
	if !ok {
		weight := 1
		if w, ok := s.cfg.Weights[workflow]; ok && w > 0 {
			weight = w
		}
		q = &queue{name: workflow, weight: weight}
		s.queues[workflow] = q
		s.order = append(s.order, workflow)
		sort.Strings(s.order)
	}
	return q
}

// removeLocked drops a cancelled waiter from its queue.
func (s *Scheduler) removeLocked(q *queue, w *waiter) {
	for i, cur := range q.waiters {
		if cur == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// estimateWaitLocked predicts the queue wait a new arrival would see:
// backlog ahead of it divided by drain parallelism, times the average
// service time. Caller holds s.mu.
func (s *Scheduler) estimateWaitLocked() time.Duration {
	svc := s.serviceEWMA
	if svc == 0 {
		return 0 // no history yet: admit optimistically
	}
	ahead := s.backlogLocked() + s.inflight - s.cfg.MaxConcurrent
	if ahead < 0 {
		ahead = 0
	}
	rounds := (ahead + s.cfg.MaxConcurrent) / s.cfg.MaxConcurrent
	return time.Duration(rounds) * svc
}

// RetryAfter suggests how long a shed client should wait before
// retrying: one estimated drain round, at least a second.
func (s *Scheduler) RetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	est := s.estimateWaitLocked()
	if est < time.Second {
		return time.Second
	}
	return est
}

// Stats is an admission snapshot for /metrics and asctl.
type Stats struct {
	Inflight      int            `json:"inflight"`
	MaxConcurrent int            `json:"max_concurrent"`
	Backlog       int            `json:"backlog"`
	Depths        map[string]int `json:"depths,omitempty"`
	Admitted      int64          `json:"admitted"`
	Shed          int64          `json:"shed"`
	Deadlined     int64          `json:"deadlined"`
	MaxWaitMs     float64        `json:"max_wait_ms"`
}

// Stats snapshots the scheduler's counters and queue depths.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Inflight:      s.inflight,
		MaxConcurrent: s.cfg.MaxConcurrent,
		Backlog:       s.backlogLocked(),
		Admitted:      s.admitted,
		Shed:          s.shed,
		Deadlined:     s.deadlined,
		MaxWaitMs:     float64(s.waitMax) / float64(time.Millisecond),
	}
	if len(s.queues) > 0 {
		st.Depths = make(map[string]int, len(s.queues))
		for name, q := range s.queues {
			st.Depths[name] = len(q.waiters)
		}
	}
	return st
}

// Close rejects all queued waiters with ErrClosed and makes future
// Admits fail. Running grants may still Release.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, q := range s.queues {
		for _, w := range q.waiters {
			w.ready <- ErrClosed
		}
		q.waiters = nil
	}
}
