package bench

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/blockdev"
	"alloystack/internal/cluster"
	"alloystack/internal/core"
	"alloystack/internal/dag"
	"alloystack/internal/gateway"
	"alloystack/internal/metrics"
	"alloystack/internal/pool"
	"alloystack/internal/visor"
)

// Cluster measures the cluster plane end to end: 1, 2 and 4 in-process
// visor nodes behind one gateway routing by damped rendezvous hash.
// Each level registers clusterFlows workflows, each owned (spec + warm
// pool) by a single node; one health-loop turn discovers the fleet and
// pre-warms every workflow's ring top over the framed spec transport,
// then a closed-loop driver sweeps invocations through the gateway.
//
// Reported per level: p50/p99/throughput of the routed path, the
// warm-placement hit rate (requests landing on a node holding the
// workflow's sealed template — the tentpole acceptance number, >90%
// after pre-warm), and the rendezvous stability of the N→N+1 ring
// transition (fraction of keys keeping their node when one joins,
// bounded below by (N-1)/N). A final phase on the largest fleet proves
// per-shard admission: with a hot workflow's budget held, the gateway
// sheds it with ErrShardBudget while a bystander workflow keeps being
// served.
const (
	clusterFlows     = 4
	clusterRingKeys  = 512
	clusterShedProbe = 8
)

func Cluster(o Options) (*Result, error) {
	o = o.withDefaults()
	levels := []int{1, 2, 4}
	perFlow := 6 * o.Iterations

	rep := newResult("cluster", "cluster plane: rendezvous routing + warm placement across visors")
	rep.Header = []string{"Nodes", "p50 (ms)", "p99 (ms)", "req/s", "warm hit", "ring stability"}
	rep.Notes = []string{
		fmt.Sprintf("%d workflows, %d invocations each per level, closed loop with 2x nodes clients", clusterFlows, perFlow),
		"warm hit = fraction of routed requests served by a node advertising the workflow's sealed template",
		fmt.Sprintf("ring stability = keys (of %d) keeping their node when a node joins N; lower bound (N-1)/N", clusterRingKeys),
	}

	for _, n := range levels {
		lv, err := clusterLevel(o, n, perFlow)
		if err != nil {
			return nil, fmt.Errorf("cluster n=%d: %w", n, err)
		}
		if lv.stats.WarmHitRate < 0.9 {
			return nil, fmt.Errorf("cluster n=%d: warm-placement hit rate %.2f, want > 0.9 after pre-warm",
				n, lv.stats.WarmHitRate)
		}
		kept := ringKept(n, clusterRingKeys)
		stability := float64(kept) / clusterRingKeys
		if bound := float64(n-1) / float64(n); stability < bound {
			return nil, fmt.Errorf("cluster n=%d: ring stability %.3f below (N-1)/N bound %.3f",
				n, stability, bound)
		}
		key := fmt.Sprintf("n%d", n)
		// The warm-hit and ring-stability columns as the integers they
		// are ratios of: hits and misses of the routed requests, keys of
		// clusterRingKeys that kept their owner.
		rep.count(countKey("warm_hits", key), lv.stats.WarmHits)
		rep.count(countKey("warm_misses", key), lv.stats.WarmMisses)
		rep.count(countKey("ring_keys_kept", key), int64(kept))
		rep.count(countKey("prewarms", key), lv.stats.Prewarms)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(n),
			ms(lv.sum.P50),
			ms(lv.sum.P99),
			fmt.Sprintf("%.0f", lv.throughput),
			fmt.Sprintf("%.0f%%", 100*lv.stats.WarmHitRate),
			fmt.Sprintf("%.3f", stability),
		})
	}

	shed, err := clusterShed(o)
	if err != nil {
		return nil, fmt.Errorf("cluster shed phase: %w", err)
	}
	rep.count("shard_shed", shed.shed)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("shed phase: hot workflow at budget 1 shed %d request(s) with Retry-After while %d bystander invocations all served (p99 %s ms)",
			shed.shed, clusterShedProbe, ms(shed.bystanderP99)))
	return emit(o, rep), nil
}

// levelStats is one fleet size's measured outcome.
type levelStats struct {
	sum        metrics.Summary
	throughput float64
	stats      cluster.Stats
}

// clusterLevel boots n nodes, places clusterFlows workflows, runs one
// health-loop turn (discovery + pre-warm sweep) and drives the closed
// loop through the gateway.
func clusterLevel(o Options, n, perFlow int) (levelStats, error) {
	nodes, addrs, stop, err := startClusterFleet(n)
	if err != nil {
		return levelStats{}, err
	}
	defer stop()

	names := make([]string, clusterFlows)
	for i := range names {
		names[i] = fmt.Sprintf("cluster-wf-%d", i)
		if err := placeWorkflow(nodes[i%n], names[i]); err != nil {
			return levelStats{}, err
		}
	}

	g, err := gateway.New(addrs...)
	if err != nil {
		return levelStats{}, err
	}
	// Deferred after the fleet's stop, so it runs first: the gateway's
	// client lets go of its connections before the nodes shut down.
	defer g.Stop()
	g.Cluster = cluster.NewRouter(cluster.Config{Clock: o.Clock})
	// Two health-loop turns: the first discovers the fleet and triggers
	// the pre-warm sweep; the second re-ranks with every template placed
	// (a sweep only re-polls the nodes it warmed).
	g.CheckHealth()
	g.CheckHealth()

	// Request k invokes names[k%clusterFlows] and owns samples[k].
	total := clusterFlows * perFlow
	samples := make([]time.Duration, total)
	work := make(chan int, total)
	for k := 0; k < total; k++ {
		work <- k
	}
	close(work)

	conc := 2 * n
	var wg sync.WaitGroup
	errCh := make(chan error, conc)
	levelStart := o.now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				nm := names[k%clusterFlows]
				start := o.now()
				if _, err := g.Invoke(nm); err != nil {
					errCh <- fmt.Errorf("invoke %s: %w", nm, err)
					return
				}
				samples[k] = o.since(start)
			}
		}()
	}
	wg.Wait()
	elapsed := o.since(levelStart)
	close(errCh)
	for err := range errCh {
		return levelStats{}, err
	}

	lv := levelStats{sum: metrics.Summarize(samples), stats: g.Cluster.Stats()}
	if s := elapsed.Seconds(); s > 0 {
		lv.throughput = float64(total) / s
	}
	return lv, nil
}

// shedStats is the admission phase's outcome.
type shedStats struct {
	shed         int64
	bystanderP99 time.Duration
}

// clusterShed proves per-shard admission on a two-node fleet: with the
// hot workflow's single budget token held, the gateway sheds further
// hot invocations with ErrShardBudget while the bystander workflow is
// still served; releasing the token re-admits the hot workflow.
func clusterShed(o Options) (shedStats, error) {
	nodes, addrs, stop, err := startClusterFleet(2)
	if err != nil {
		return shedStats{}, err
	}
	defer stop()
	const hot, bystander = "cluster-wf-hot", "cluster-wf-cold"
	if err := placeWorkflow(nodes[0], hot); err != nil {
		return shedStats{}, err
	}
	if err := placeWorkflow(nodes[1], bystander); err != nil {
		return shedStats{}, err
	}

	g, err := gateway.New(addrs...)
	if err != nil {
		return shedStats{}, err
	}
	defer g.Stop()
	g.Cluster = cluster.NewRouter(cluster.Config{
		ShardBudgetFor: map[string]int{hot: 1},
		RetryAfter:     2 * time.Second,
		Clock:          o.Clock,
	})
	g.CheckHealth()
	g.CheckHealth()

	release, err := g.Cluster.Admit(hot)
	if err != nil {
		return shedStats{}, fmt.Errorf("first token must admit: %w", err)
	}
	if _, err := g.Invoke(hot); !errors.Is(err, cluster.ErrShardBudget) {
		release()
		return shedStats{}, fmt.Errorf("hot invoke at budget = %v, want ErrShardBudget", err)
	}
	lat := make([]time.Duration, 0, clusterShedProbe)
	for i := 0; i < clusterShedProbe; i++ {
		start := o.now()
		if _, err := g.Invoke(bystander); err != nil {
			release()
			return shedStats{}, fmt.Errorf("bystander starved while hot shard shed: %w", err)
		}
		lat = append(lat, o.since(start))
	}
	release()
	if _, err := g.Invoke(hot); err != nil {
		return shedStats{}, fmt.Errorf("hot invoke after release = %v, want re-admitted", err)
	}
	st := g.Cluster.Stats()
	if st.ShardShed == 0 {
		return shedStats{}, fmt.Errorf("shard shed counter is zero after a shed")
	}
	return shedStats{shed: st.ShardShed, bystanderP99: metrics.Summarize(lat).P99}, nil
}

// startClusterFleet boots n visor nodes with the full cluster surface:
// watchdog HTTP, pool manager and pre-warm builder. The
// "cluster-noop" native function backs every workflow the experiment
// registers.
func startClusterFleet(n int) (nodes []*visor.Watchdog, addrs []string, stop func(), err error) {
	stop = func() {
		for _, wd := range nodes {
			wd.Stop()
			wd.Pools.StopAll()
		}
	}
	for i := 0; i < n; i++ {
		r := visor.NewRegistry()
		r.RegisterNative("cluster-noop", func(env *asstd.Env, _ visor.FuncContext) error {
			_, err := asstd.Now(env)
			return err
		})
		wd := visor.NewWatchdog(visor.New(r))
		wd.NodeID = fmt.Sprintf("bench-node-%d", i)
		wd.OptionsFor = func(string) visor.RunOptions {
			ro := visor.DefaultRunOptions()
			ro.CostScale = 0
			ro.BufHeapSize = 1 << 20
			return ro
		}
		wd.Pools = pool.NewManager()
		wd.PoolBuilder = func(w *dag.Workflow) (pool.Spec, pool.Config, bool) {
			return pool.Spec{
				Workflow: w.Name,
				Core: core.Options{
					OnDemand:    true,
					BufHeapSize: 1 << 20,
					DiskImage:   blockdev.NewMemDisk(8 << 20),
				},
				Modules: []string{"mm", "fdtab", "stdio", "time"},
				// Clones are single-use; a tight refill keeps the pool
				// stocked under the closed loop.
			}, pool.Config{Min: 2, Max: 8, RefillEvery: 2 * time.Millisecond, Seed: 1}, true
		}
		if _, err := wd.Start("127.0.0.1:0"); err != nil {
			stop()
			return nil, nil, nil, err
		}
		nodes = append(nodes, wd)
		addrs = append(addrs, wd.Addr())
	}
	return nodes, addrs, stop, nil
}

// placeWorkflow makes wd the owner of a noop-backed workflow: registers
// the spec and seals a warm pool through the node's own pre-warm
// endpoint — the same path a deploy takes.
func placeWorkflow(wd *visor.Watchdog, name string) error {
	if err := wd.Visor().RegisterWorkflow(&dag.Workflow{
		Name: name, Functions: []dag.FuncSpec{{Name: "cluster-noop"}}}); err != nil {
		return err
	}
	body := fmt.Sprintf(`{"workflow":%q}`, name)
	resp, err := http.Post("http://"+wd.Addr()+"/pools/prewarm", "application/json",
		bytes.NewBufferString(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("self pre-warm of %s: HTTP %d", name, resp.StatusCode)
	}
	return nil
}

// ringKept counts the keys (of keys) that keep their rendezvous owner
// when node n joins an n-node ring — the pure arithmetic behind the
// scale curve's stability column.
func ringKept(n, keys int) int {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-node-%d", i)
	}
	grown := append(append([]string(nil), ids...), fmt.Sprintf("bench-node-%d", n))
	kept := 0
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("wf-key-%d", k)
		if cluster.Owner(key, ids, nil) == cluster.Owner(key, grown, nil) {
			kept++
		}
	}
	return kept
}
