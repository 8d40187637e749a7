package cluster

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source: everything in this package
// must behave identically under it (the wallclock analyzer's contract).
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0)}
}
func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func nodeIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%d", i)
	}
	return ids
}

func keys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("workflow-%d", i)
	}
	return ks
}

// TestRankStability is the rendezvous property the scale curve leans
// on: when one node joins an N-node ring, at least (N-1)/N of keys
// keep their owner (expected moved share is 1/(N+1)).
func TestRankStability(t *testing.T) {
	const numKeys = 256
	ks := keys(numKeys)
	for n := 1; n <= 7; n++ {
		before := make(map[string]string, numKeys)
		for _, k := range ks {
			before[k] = Owner(k, nodeIDs(n), nil)
		}
		kept := 0
		for _, k := range ks {
			if Owner(k, nodeIDs(n+1), nil) == before[k] {
				kept++
			}
		}
		min := int(float64(numKeys) * float64(n-1) / float64(n))
		if kept < min {
			t.Errorf("n=%d->%d: %d/%d keys kept their node, want >= %d",
				n, n+1, kept, numKeys, min)
		}
		if kept == numKeys && n > 1 {
			t.Errorf("n=%d->%d: no key moved to the joining node; it is not taking load", n, n+1)
		}
	}
}

// TestRankDeterministic: ranking is a pure function of (key, nodes,
// weights) — identical across calls and across input orderings, which
// is what lets every gateway replica agree without coordination.
func TestRankDeterministic(t *testing.T) {
	ids := nodeIDs(5)
	r1 := Rank("word-count", ids, nil)
	rev := make([]string, len(ids))
	for i, id := range ids {
		rev[len(ids)-1-i] = id
	}
	r2 := Rank("word-count", rev, nil)
	if len(r1) != len(r2) {
		t.Fatalf("len %d != %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].ID != r2[i].ID {
			t.Fatalf("rank %d: %s != %s (order-dependent ranking)", i, r1[i].ID, r2[i].ID)
		}
	}
}

// TestRankBalance: equal weights spread the keyspace roughly evenly —
// no node owns more than twice or less than half its fair share.
func TestRankBalance(t *testing.T) {
	const numKeys = 2000
	ids := nodeIDs(4)
	counts := make(map[string]int)
	for _, k := range keys(numKeys) {
		counts[Owner(k, ids, nil)]++
	}
	fair := numKeys / len(ids)
	for _, id := range ids {
		if counts[id] < fair/2 || counts[id] > fair*2 {
			t.Errorf("node %s owns %d keys, fair share %d", id, counts[id], fair)
		}
	}
}

// TestRankWeightDamping: halving a node's weight roughly halves its
// keyspace share without disturbing assignments among the others.
func TestRankWeightDamping(t *testing.T) {
	const numKeys = 2000
	ids := nodeIDs(4)
	weighted := func(id string) float64 {
		if id == "node-0" {
			return 0.5
		}
		return 1.0
	}
	equal, damped := 0, 0
	moved := 0
	for _, k := range keys(numKeys) {
		a := Owner(k, ids, nil)
		b := Owner(k, ids, weighted)
		if a == "node-0" {
			equal++
		}
		if b == "node-0" {
			damped++
		}
		// A key may only move off the damped node, never between
		// undamped nodes (their scores are untouched).
		if a != b && a != "node-0" {
			moved++
		}
	}
	if damped >= equal {
		t.Errorf("damped node share %d not below equal-weight share %d", damped, equal)
	}
	if damped < equal/4 {
		t.Errorf("damped share %d collapsed (equal share %d); damping should be smooth", damped, equal)
	}
	if moved != 0 {
		t.Errorf("%d keys moved between undamped nodes; damping must be local", moved)
	}
}

func infoWarm(id string, warm ...string) NodeInfo {
	ads := make([]WarmAd, len(warm))
	for i, w := range warm {
		ads[i] = WarmAd{Workflow: w, Warm: 1}
	}
	return NodeInfo{ID: id, Capacity: 8, Warm: ads, Workflows: warm}
}

func TestMembershipView(t *testing.T) {
	clk := newFakeClock()
	m := NewMembership(clk.Now)
	m.Update("127.0.0.1:1", infoWarm("n1", "wc"))
	clk.Advance(50 * time.Millisecond)
	m.Update("127.0.0.1:2", infoWarm("n2", "sort"))
	m.MarkDead("127.0.0.1:3")

	snap := m.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d members, want 3", len(snap))
	}
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Addr < snap[j].Addr }) {
		t.Error("snapshot not sorted by address")
	}
	if got := snap[0].AgeMs; got != 50 {
		t.Errorf("member 1 age = %vms, want 50 (injected clock)", got)
	}
	alive := m.Alive()
	if len(alive) != 2 {
		t.Fatalf("alive = %d, want 2", len(alive))
	}
	if wfs := m.Workflows(); len(wfs) != 2 || wfs[0] != "sort" || wfs[1] != "wc" {
		t.Errorf("workflows = %v, want [sort wc]", wfs)
	}

	// A dead node revives on the next successful poll.
	m.MarkDead("127.0.0.1:1")
	if len(m.Alive()) != 1 {
		t.Error("MarkDead did not remove the member from Alive")
	}
	m.Update("127.0.0.1:1", infoWarm("n1", "wc"))
	if len(m.Alive()) != 2 {
		t.Error("Update did not revive the member")
	}
}

func TestShardLimiterBudget(t *testing.T) {
	lim := NewShardLimiter(2, map[string]int{"vip": 4}, 3*time.Second)

	rel1, err := lim.Acquire("hot")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := lim.Acquire("hot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lim.Acquire("hot"); !errors.Is(err, ErrShardBudget) {
		t.Fatalf("3rd acquire err = %v, want ErrShardBudget", err)
	}
	var sbe *ShardBudgetError
	_, err = lim.Acquire("hot")
	if !errors.As(err, &sbe) || sbe.RetryAfter != 3*time.Second || sbe.Workflow != "hot" {
		t.Fatalf("shed error %v lacks retry-after/workflow detail", err)
	}
	// Other shards are untouched by the hot shard's saturation.
	for i := 0; i < 4; i++ {
		if _, err := lim.Acquire("vip"); err != nil {
			t.Fatalf("vip acquire %d: %v", i, err)
		}
	}
	rel1()
	rel2()
	if _, err := lim.Acquire("hot"); err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
	if got := lim.ShedTotal(); got != 2 {
		t.Errorf("total shed = %d, want 2", got)
	}
}

func TestShardLimiterUnlimited(t *testing.T) {
	lim := NewShardLimiter(0, nil, 0)
	for i := 0; i < 100; i++ {
		if _, err := lim.Acquire("any"); err != nil {
			t.Fatalf("unlimited acquire %d: %v", i, err)
		}
	}
}

// routerWith builds a router over two live members where ownerWarm
// holds the workflow's template.
func routerWith(clk *fakeClock, warmAddr string) *Router {
	r := NewRouter(Config{Clock: clk.Now})
	for _, addr := range []string{"127.0.0.1:1", "127.0.0.1:2"} {
		info := NodeInfo{ID: addr, Capacity: 8, Workflows: []string{"wc"}}
		if addr == warmAddr {
			info.Warm = []WarmAd{{Workflow: "wc", Warm: 2}}
		}
		r.Membership().Update(addr, info)
	}
	return r
}

func TestRouterPrewarmPlanAndHitRate(t *testing.T) {
	clk := newFakeClock()
	// Find which member rendezvous ranks on top for "wc", then put the
	// warm template on the *other* one, forcing a pre-warm plan.
	probe := routerWith(clk, "")
	cands := probe.Route("wc")
	if len(cands) != 2 {
		t.Fatalf("route = %d candidates, want 2", len(cands))
	}
	top, second := cands[0].Addr, cands[1].Addr

	r := routerWith(clk, second)
	plans := r.PrewarmPlans()
	if len(plans) != 1 {
		t.Fatalf("plans = %v, want exactly one", plans)
	}
	if plans[0].Workflow != "wc" || plans[0].Target != top || plans[0].Owner != second {
		t.Errorf("plan = %+v, want target %s fed by owner %s for wc", plans[0], top, second)
	}

	// Steady state before the pre-warm lands: traffic still routes to
	// the top node (ring stability beats warm affinity: warm holders
	// get no boost), which counts as warm misses.
	for i := 0; i < 10; i++ {
		r.NoteServed(r.Route("wc")[0])
	}
	if rate := r.Stats().WarmHitRate; rate != 0 {
		t.Errorf("pre-prewarm hit rate = %v, want 0", rate)
	}

	// The pre-warm completes: the top node now advertises the template.
	info := infoWarm(top, "wc")
	info.Warm = []WarmAd{{Workflow: "wc", Warm: 1}}
	r.Membership().Update(top, NodeInfo{ID: top, Capacity: 8,
		Workflows: []string{"wc"}, Warm: []WarmAd{{Workflow: "wc", Warm: 1}}})
	if plans := r.PrewarmPlans(); len(plans) != 0 {
		t.Errorf("post-prewarm plans = %v, want none", plans)
	}
	served := 0
	for i := 0; i < 100; i++ {
		c := r.Route("wc")[0]
		r.NoteServed(c)
		if c.Addr == top {
			served++
		}
	}
	if served != 100 {
		t.Errorf("steady-state routing split: %d/100 on the warm top node", served)
	}
	if rate := r.Stats().WarmHitRate; rate < 0.9 {
		t.Errorf("steady-state warm hit rate = %v, want >= 0.9", rate)
	}
}

func TestRouterDegradedDamping(t *testing.T) {
	clk := newFakeClock()
	r := NewRouter(Config{Clock: clk.Now})
	// Many keys, two nodes: degrading one must shrink (not zero) its
	// share of top ranks.
	r.Membership().Update("a:1", NodeInfo{ID: "a", Capacity: 8})
	r.Membership().Update("b:1", NodeInfo{ID: "b", Capacity: 8})
	share := func() int {
		n := 0
		for _, k := range keys(400) {
			if r.Route(k)[0].ID == "a" {
				n++
			}
		}
		return n
	}
	healthy := share()
	r.Membership().Update("a:1", NodeInfo{ID: "a", Capacity: 8, Degraded: true})
	degraded := share()
	if degraded >= healthy {
		t.Errorf("degraded share %d not below healthy share %d", degraded, healthy)
	}
	if degraded == 0 {
		t.Error("degraded node fully drained; damping should deprioritise, not bench")
	}
}

func TestRouterLoadDamping(t *testing.T) {
	clk := newFakeClock()
	r := NewRouter(Config{Clock: clk.Now})
	r.Membership().Update("a:1", NodeInfo{ID: "a", Capacity: 4})
	r.Membership().Update("b:1", NodeInfo{ID: "b", Capacity: 4})
	share := func() int {
		n := 0
		for _, k := range keys(400) {
			if r.Route(k)[0].ID == "a" {
				n++
			}
		}
		return n
	}
	idle := share()
	r.Membership().Update("a:1", NodeInfo{ID: "a", Capacity: 4, Inflight: 4})
	loaded := share()
	if loaded >= idle {
		t.Errorf("saturated share %d not below idle share %d", loaded, idle)
	}
}

// TestHotShardIsolation is the shard-admission acceptance property,
// simulated deterministically on the injected clock: a hot workflow
// flooding its shard is shed at its token budget while a second
// workflow's latency distribution is identical to its solo run.
func TestHotShardIsolation(t *testing.T) {
	const (
		hotBudget   = 2
		waves       = 20
		hotPerWave  = 8
		serviceTime = 5 * time.Millisecond
	)
	run := func(withHot bool) (coldLat []time.Duration, hotShed int64) {
		clk := newFakeClock()
		r := NewRouter(Config{Clock: clk.Now, ShardBudget: 0,
			ShardBudgetFor: map[string]int{"hot": hotBudget}})
		r.Membership().Update("a:1", NodeInfo{ID: "a", Capacity: 8})
		for wave := 0; wave < waves; wave++ {
			var releases []func()
			if withHot {
				// A burst far over budget arrives in one wave: the
				// budget admits exactly hotBudget and sheds the rest.
				for i := 0; i < hotPerWave; i++ {
					rel, err := r.Admit("hot")
					if err == nil {
						releases = append(releases, rel)
					} else if !errors.Is(err, ErrShardBudget) {
						t.Fatalf("hot admit: %v", err)
					}
				}
				if len(releases) != hotBudget {
					t.Fatalf("wave %d admitted %d hot, want %d", wave, len(releases), hotBudget)
				}
			}
			// The cold workflow's request in the same wave: admitted
			// immediately, serves in a deterministic service time.
			rel, err := r.Admit("cold")
			if err != nil {
				t.Fatalf("cold admit during hot flood: %v", err)
			}
			start := clk.Now()
			clk.Advance(serviceTime)
			coldLat = append(coldLat, clk.Now().Sub(start))
			rel()
			for _, rel := range releases {
				rel()
			}
		}
		return coldLat, r.Limiter().ShedTotal()
	}

	soloLat, _ := run(false)
	mixedLat, hotShed := run(true)
	if want := int64(waves * (hotPerWave - hotBudget)); hotShed != want {
		t.Errorf("hot shed = %d, want %d (budget enforced per wave)", hotShed, want)
	}
	for i := range soloLat {
		if soloLat[i] != mixedLat[i] {
			t.Fatalf("cold latency diverged at request %d: solo %v, mixed %v",
				i, soloLat[i], mixedLat[i])
		}
	}
}

func TestRouterRouteEmpty(t *testing.T) {
	r := NewRouter(Config{Clock: newFakeClock().Now})
	if c := r.Route("wc"); c != nil {
		t.Errorf("route with no members = %v, want nil", c)
	}
	r.Membership().MarkDead("a:1")
	if c := r.Route("wc"); c != nil {
		t.Errorf("route with only dead members = %v, want nil", c)
	}
}
