// Package cluster is the control plane that turns the gateway into a
// sharding router over N visors (ROADMAP open item 1). Three pieces
// federate the existing single-node machinery:
//
//   - A membership view: every watchdog advertises a NodeInfo on
//     GET /cluster — identity, capacity, inflight, SLO-degraded state
//     and the set of workflows it holds sealed warm templates for (fed
//     from pool.Manager.Stats()). The gateway folds these into a
//     Membership on its existing health-probe loop.
//
//   - Rendezvous-hash (HRW) routing: invocations are keyed by workflow
//     name and ranked over the live members with weighted
//     highest-random-weight hashing, the weights damped by advertised
//     load and degraded state. A workflow's traffic therefore
//     concentrates on the node holding its warm template instead of
//     round-robining into cold starts, and when a node joins only
//     ~1/N of the keyspace moves (rendezvous stability).
//
//   - Per-shard admission: a per-workflow token budget at the router,
//     so one hot workflow saturating its shard is shed with
//     429+Retry-After instead of starving the fleet's other shards.
//
// Warm-placement assist rides on top: when the hash ranks a node that
// lacks a warm template, Router.PrewarmPlans names the target and the
// owning node's watchdog address so the gateway can trigger
// POST /pools/prewarm — the target pulls the workflow spec with
// GET /workflows/{name} from the owner and builds + seals its own pool
// before traffic lands.
//
// The package is clock-injected throughout (asvet's wallclock analyzer
// scopes it): ranking is pure hashing, membership staleness and
// Retry-After hints read only the configured clock.
package cluster

// WarmAd advertises one warm pool a node holds: the workflow and the
// idle clone stock. A node with a pool — even one momentarily at zero
// idle clones — holds the sealed template, which is what placement
// cares about (clones fork in microseconds; templates boot in
// hundreds of milliseconds).
type WarmAd struct {
	Workflow string `json:"workflow"`
	Warm     int    `json:"warm"`
}

// NodeInfo is the self-report a watchdog serves on GET /cluster. It
// names no address: the one the gateway polled is where the node takes
// invokes and where a peer pulls its specs (GET /workflows/{name}).
type NodeInfo struct {
	// ID is the node's routing identity. It must be stable across the
	// node's lifetime; the watchdog defaults it to the listen address.
	ID string `json:"id"`
	// Capacity is the node's advertised concurrent-invocation capacity
	// (MaxInflight or the scheduler's MaxConcurrent; 0 = unlimited).
	Capacity int64 `json:"capacity"`
	// Inflight is the node's currently executing invocation count.
	Inflight int64 `json:"inflight"`
	// Degraded mirrors /healthz: the node serves, but a workflow is
	// inside an SLO breach. Ranking damps degraded nodes.
	Degraded bool `json:"degraded,omitempty"`
	// Warm lists the workflows this node holds sealed templates for,
	// sorted by workflow name.
	Warm []WarmAd `json:"warm,omitempty"`
	// Workflows lists every workflow registered on the node, sorted.
	Workflows []string `json:"workflows,omitempty"`
}

// HasWarm reports whether the node advertises a warm template for the
// workflow.
func (n NodeInfo) HasWarm(workflow string) bool {
	for _, w := range n.Warm {
		if w.Workflow == workflow {
			return true
		}
	}
	return false
}

// Knows reports whether the node has the workflow registered (warm or
// not).
func (n NodeInfo) Knows(workflow string) bool {
	for _, w := range n.Workflows {
		if w == workflow {
			return true
		}
	}
	return false
}
