package cluster

import (
	"sync/atomic"
	"time"
)

// Config tunes the router.
type Config struct {
	// ShardBudget is the default per-workflow concurrent token budget
	// at the router (0 = unlimited); ShardBudgetFor overrides per
	// workflow.
	ShardBudget    int
	ShardBudgetFor map[string]int
	// RetryAfter is the back-off hint shed requests carry (default 1s).
	RetryAfter time.Duration
	// Clock is the time source (tests inject a fake; default time.Now).
	Clock func() time.Time
}

// Router owns the membership view, the rendezvous ranking and the
// per-shard admission budget. The gateway consults it per invocation;
// asctl renders its Stats.
type Router struct {
	cfg     Config
	members *Membership
	limiter *ShardLimiter

	warmHits   atomic.Int64
	warmMisses atomic.Int64
	prewarms   atomic.Int64
}

// NewRouter builds a router from cfg.
func NewRouter(cfg Config) *Router {
	if cfg.Clock == nil {
		cfg.Clock = time.Now //asvet:allow wallclock -- the approved clock injection point
	}
	return &Router{
		cfg:     cfg,
		members: NewMembership(cfg.Clock),
		limiter: NewShardLimiter(cfg.ShardBudget, cfg.ShardBudgetFor, cfg.RetryAfter),
	}
}

// Membership exposes the view the gateway's health loop feeds.
func (r *Router) Membership() *Membership { return r.members }

// Limiter exposes the per-shard admission budget.
func (r *Router) Limiter() *ShardLimiter { return r.limiter }

// Candidate is one ranked routing choice for a workflow.
type Candidate struct {
	// Addr is the member's watchdog address (where to forward).
	Addr string `json:"addr"`
	// ID is the member's routing identity (what was hashed).
	ID string `json:"id"`
	// Warm reports whether the member advertises a sealed warm
	// template for the routed workflow.
	Warm bool `json:"warm"`
	// Weight is the damped rendezvous weight the ranking used.
	Weight float64 `json:"weight"`
}

// Ranking damping. A member self-reporting SLO-degraded ranks at
// degradedFactor of its weight; advertised load (inflight/capacity)
// divides the weight by 1 + loadDamp*load, so a saturated node ranks at
// half weight. Warm holders get no boost: placement relies on rendezvous
// concentration plus pre-warm, which keeps the ring stable.
const (
	degradedFactor = 0.5
	loadDamp       = 1.0
)

// weightOf computes the member's damped weight. Members advertising
// unlimited capacity are never load-damped.
func weightOf(m Member) float64 {
	w := 1.0
	if m.Info.Degraded {
		w *= degradedFactor
	}
	if m.Info.Capacity > 0 {
		load := float64(m.Info.Inflight) / float64(m.Info.Capacity)
		if load > 0 {
			w /= 1 + loadDamp*load
		}
	}
	return w
}

// Route ranks the live members for one workflow by damped rendezvous
// score. An empty result means no member is alive (the caller should
// fall back or fail).
func (r *Router) Route(workflow string) []Candidate {
	alive := r.members.Alive()
	if len(alive) == 0 {
		return nil
	}
	byID := make(map[string]Member, len(alive))
	ids := make([]string, 0, len(alive))
	for _, m := range alive {
		id := m.Info.ID
		if id == "" {
			id = m.Addr
		}
		byID[id] = m
		ids = append(ids, id)
	}
	ranked := Rank(workflow, ids, func(id string) float64 {
		return weightOf(byID[id])
	})
	out := make([]Candidate, len(ranked))
	for i, rk := range ranked {
		m := byID[rk.ID]
		out[i] = Candidate{
			Addr:   m.Addr,
			ID:     rk.ID,
			Warm:   m.Info.HasWarm(workflow),
			Weight: rk.Weight,
		}
	}
	return out
}

// Admit takes a shard token for the workflow; see ShardLimiter.Acquire.
func (r *Router) Admit(workflow string) (func(), error) {
	return r.limiter.Acquire(workflow)
}

// NoteServed records that the routed candidate served an invocation,
// feeding the warm-placement hit rate: a hit is a request that landed on
// a node holding the workflow's sealed template when it was ranked.
func (r *Router) NoteServed(c Candidate) {
	if c.Warm {
		r.warmHits.Add(1)
	} else {
		r.warmMisses.Add(1)
	}
}

// NotePrewarm counts a triggered pre-warm.
func (r *Router) NotePrewarm() { r.prewarms.Add(1) }

// PrewarmPlan names one pre-warm the gateway should trigger: the
// top-ranked node for a workflow lacks the workflow's warm template
// while another live node holds it.
type PrewarmPlan struct {
	// Workflow is the under-placed workflow.
	Workflow string `json:"workflow"`
	// Target is the watchdog address that should build a pool.
	Target string `json:"target"`
	// Owner is the watchdog address of the highest-ranked live node
	// holding the template: the address the gateway forwards to, from
	// which the target pulls the workflow spec.
	Owner string `json:"owner"`
}

// PrewarmPlans computes the pre-warms worth triggering now: for every
// workflow some live member holds warm, if the rendezvous top for that
// workflow lacks the template, plan a pre-warm on the top node, fed by
// the highest-ranked warm holder.
func (r *Router) PrewarmPlans() []PrewarmPlan {
	var plans []PrewarmPlan
	for _, workflow := range r.members.Workflows() {
		cands := r.Route(workflow)
		if len(cands) < 2 || cands[0].Warm {
			continue
		}
		for _, c := range cands[1:] {
			if c.Warm {
				plans = append(plans, PrewarmPlan{Workflow: workflow, Target: cands[0].Addr, Owner: c.Addr})
				break
			}
		}
	}
	return plans
}

// Stats is the router's observability snapshot (gateway /cluster and
// /metrics, asctl cluster).
type Stats struct {
	Nodes      int   `json:"nodes"`
	NodesAlive int   `json:"nodes_alive"`
	WarmHits   int64 `json:"warm_hits"`
	WarmMisses int64 `json:"warm_misses"`
	Prewarms   int64 `json:"prewarms"`
	ShardShed  int64 `json:"shard_shed"`
	// WarmHitRate is hits/(hits+misses), 0 when nothing routed yet.
	WarmHitRate float64 `json:"warm_hit_rate"`
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	all := r.members.Snapshot()
	alive := 0
	for _, m := range all {
		if m.Alive {
			alive++
		}
	}
	hits, misses := r.warmHits.Load(), r.warmMisses.Load()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	return Stats{
		Nodes:       len(all),
		NodesAlive:  alive,
		WarmHits:    hits,
		WarmMisses:  misses,
		Prewarms:    r.prewarms.Load(),
		ShardShed:   r.limiter.ShedTotal(),
		WarmHitRate: rate,
	}
}
