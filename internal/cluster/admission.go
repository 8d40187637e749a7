package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrShardBudget is the sentinel a shard-budget shed satisfies via
// errors.Is; the concrete *ShardBudgetError carries the Retry-After
// hint.
var ErrShardBudget = errors.New("cluster: shard token budget exhausted")

// ShardBudgetError reports that a workflow's shard is saturated at the
// router: every token in its per-workflow budget is held by an
// in-flight request. The gateway maps it to 429 + Retry-After.
type ShardBudgetError struct {
	Workflow   string
	Budget     int
	RetryAfter time.Duration
}

func (e *ShardBudgetError) Error() string {
	return fmt.Sprintf("cluster: workflow %q shard saturated (budget %d), retry after %s",
		e.Workflow, e.Budget, e.RetryAfter)
}

// Is makes errors.Is(err, ErrShardBudget) hold for the typed error.
func (e *ShardBudgetError) Is(target error) bool {
	return target == ErrShardBudget //asvet:allow senterr -- identity check inside Is itself
}

// ShardLimiter enforces per-workflow concurrent token budgets at the
// router. Tokens are held for the duration of a forwarded request, so
// a hot workflow saturating its shard is shed at the gateway without
// consuming backend connections the fleet's other shards need. A zero
// budget means unlimited (admission stays at the backends).
type ShardLimiter struct {
	budget     int
	overrides  map[string]int
	retryAfter time.Duration

	mu       sync.Mutex
	inflight map[string]int
	shed     map[string]int64
}

// NewShardLimiter builds a limiter with a default per-workflow budget
// and optional per-workflow overrides. retryAfter is the back-off hint
// shed requests carry (default 1s).
func NewShardLimiter(budget int, overrides map[string]int, retryAfter time.Duration) *ShardLimiter {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	return &ShardLimiter{
		budget:     budget,
		overrides:  overrides,
		retryAfter: retryAfter,
		inflight:   make(map[string]int),
		shed:       make(map[string]int64),
	}
}

// BudgetFor reports the workflow's token budget (0 = unlimited).
func (s *ShardLimiter) BudgetFor(workflow string) int {
	if b, ok := s.overrides[workflow]; ok {
		return b
	}
	return s.budget
}

// Acquire takes one token for workflow. On success it returns a
// release closure (idempotent callers must still call it exactly
// once); on exhaustion it returns a *ShardBudgetError.
func (s *ShardLimiter) Acquire(workflow string) (func(), error) {
	b := s.BudgetFor(workflow)
	if b <= 0 {
		return func() {}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[workflow] >= b {
		s.shed[workflow]++
		return nil, &ShardBudgetError{Workflow: workflow, Budget: b, RetryAfter: s.retryAfter}
	}
	s.inflight[workflow]++
	return func() {
		s.mu.Lock()
		s.inflight[workflow]--
		s.mu.Unlock()
	}, nil
}

// ShedTotal reports budget rejections across all workflows.
func (s *ShardLimiter) ShedTotal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, v := range s.shed {
		n += v
	}
	return n
}
