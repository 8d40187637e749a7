package integration

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/blockdev"
	"alloystack/internal/dag"
	"alloystack/internal/pool"
	"alloystack/internal/sched"
	"alloystack/internal/trace"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// pyChain is the Python-runtime workflow the lifecycle tests boot: its
// cold start pays the runtime image read plus the interpreter
// bootstrap, which is exactly what the warm pool amortises.
func pyChain(t *testing.T) (*visor.Visor, *dag.Workflow) {
	t.Helper()
	reg := visor.NewRegistry()
	workloads.RegisterAll(reg)
	v := visor.New(reg)
	w := workloads.FunctionChain(2, 64*1024, "python")
	if err := v.RegisterWorkflow(w); err != nil {
		t.Fatal(err)
	}
	return v, w
}

// countingImage builds a disk image with the Python runtime staged and
// wraps it in a read counter.
func countingImage(t *testing.T) *blockdev.Counting {
	t.Helper()
	img, err := workloads.BuildEmptyImage(true)
	if err != nil {
		t.Fatal(err)
	}
	return &blockdev.Counting{Inner: img}
}

// TestColdImageReadsScaleWithInstances reproduces the paper's §8.5
// observation: every cold instance re-reads the runtime image from its
// filesystem, so aggregate image reads grow with the number of
// concurrent instances — while template-forked warm boots perform zero
// image reads no matter how many clones serve.
func TestColdImageReadsScaleWithInstances(t *testing.T) {
	v, w := pyChain(t)

	coldReads := func(n int) int64 {
		devs := make([]*blockdev.Counting, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			devs[i] = countingImage(t)
			ro := visor.DefaultRunOptions()
			ro.CostScale = 0 // counting reads, not modelling latency
			ro.BufHeapSize = 64 << 20
			ro.DiskImage = devs[i]
			ro.Stdout = io.Discard
			wg.Add(1)
			go func(i int, ro visor.RunOptions) {
				defer wg.Done()
				_, errs[i] = v.RunWorkflow(w, ro)
			}(i, ro)
		}
		wg.Wait()
		var total int64
		for i, d := range devs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			reads, _, _, _ := d.Stats()
			total += reads
		}
		return total
	}

	r1 := coldReads(1)
	if r1 == 0 {
		t.Fatal("cold boot performed no image reads; the §8.5 bottleneck is not modelled")
	}
	r4 := coldReads(4)
	if r4 < 3*r1 {
		t.Fatalf("cold image reads do not scale with instances: 1 instance = %d reads, 4 instances = %d", r1, r4)
	}

	// Warm arm: one template pays the reads; clones perform none.
	dev := countingImage(t)
	spec, ok := workloads.PoolSpecFor(w, 64*1024, 0)
	if !ok {
		t.Fatal("python workflow should be poolable")
	}
	spec.Core.DiskImage = dev
	p, err := pool.New(spec, pool.Config{Min: 4, Max: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	readsAfterBoot, _, _, _ := dev.Stats()
	if readsAfterBoot == 0 {
		t.Fatal("template boot performed no image reads")
	}

	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		ro := visor.DefaultRunOptions()
		ro.CostScale = 0
		ro.BufHeapSize = 64 << 20
		ro.Stdout = io.Discard
		ro.Pool = p
		ro.WarmStart = true
		wg.Add(1)
		go func(i int, ro visor.RunOptions) {
			defer wg.Done()
			var res *visor.RunResult
			res, errs[i] = v.RunWorkflow(w, ro)
			if errs[i] == nil && !res.WarmStart {
				errs[i] = fmt.Errorf("run %d fell back to a cold boot", i)
			}
		}(i, ro)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	readsAfterServe, _, _, _ := dev.Stats()
	if readsAfterServe != readsAfterBoot {
		t.Fatalf("warm clones touched the image: reads %d -> %d", readsAfterBoot, readsAfterServe)
	}
}

// slowNode builds a watchdog over a single native function that blocks
// for dwell while tracking the peak number of concurrent executions.
func slowNode(t *testing.T, dwell time.Duration, peak *atomic.Int64) *visor.Watchdog {
	t.Helper()
	reg := visor.NewRegistry()
	var running atomic.Int64
	reg.RegisterNative("slow", func(env *asstd.Env, _ visor.FuncContext) error {
		n := running.Add(1)
		for {
			cur := peak.Load()
			if n <= cur || peak.CompareAndSwap(cur, n) {
				break
			}
		}
		time.Sleep(dwell)
		running.Add(-1)
		return nil
	})
	v := visor.New(reg)
	w := &dag.Workflow{Name: "slow", Functions: []dag.FuncSpec{{Name: "slow"}}}
	if err := v.RegisterWorkflow(w); err != nil {
		t.Fatal(err)
	}
	wd := visor.NewWatchdog(v)
	wd.OptionsFor = func(string) visor.RunOptions {
		ro := visor.DefaultRunOptions()
		ro.CostScale = 0
		ro.BufHeapSize = 16 << 20
		ro.Stdout = io.Discard
		return ro
	}
	if _, err := wd.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wd.Stop() })
	return wd
}

// TestWatchdogShedsUnderSaturation floods a watchdog whose no-queue
// scheduler admits two invocations: the excess must come back as 429
// with a Retry-After hint, the admitted ones must succeed, and at no
// point may more than two invocations execute concurrently.
func TestWatchdogShedsUnderSaturation(t *testing.T) {
	var peak atomic.Int64
	wd := slowNode(t, 150*time.Millisecond, &peak)
	wd.Sched = sched.New(sched.Config{MaxConcurrent: 2, MaxQueue: -1})
	defer wd.Sched.Close()

	const clients = 12
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post("http://"+wd.Addr()+"/invoke/slow", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				shed.Add(1)
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no invocation was admitted")
	}
	if shed.Load() == 0 {
		t.Fatal("saturated watchdog shed nothing; admission control is not bounding load")
	}
	if got := ok.Load() + shed.Load(); got != clients {
		t.Fatalf("requests unaccounted for: %d ok + %d shed != %d", ok.Load(), shed.Load(), clients)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeds the limit of 2", p)
	}
	if wd.Shed() != shed.Load() {
		t.Fatalf("shed counter %d != observed sheds %d", wd.Shed(), shed.Load())
	}
}

// TestSchedulerQueuesThenSheds gives the scheduler a queue: requests over the concurrency limit queue up to MaxQueue
// and then shed, and queued-but-served invocations report their wait.
func TestSchedulerQueuesThenSheds(t *testing.T) {
	var peak atomic.Int64
	wd := slowNode(t, 100*time.Millisecond, &peak)
	s := sched.New(sched.Config{MaxConcurrent: 1, MaxQueue: 2})
	defer s.Close()
	wd.Sched = s

	const clients = 8
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post("http://"+wd.Addr()+"/invoke/slow", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				shed.Add(1)
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	// One runs, two queue; the remaining five race for freed queue
	// slots, so at least clients-3 shed in the worst case and at least
	// three requests are eventually served.
	if ok.Load() < 3 {
		t.Fatalf("expected at least 3 served (1 running + 2 queued), got %d", ok.Load())
	}
	if shed.Load() == 0 {
		t.Fatal("queue never overflowed; MaxQueue is not bounding the backlog")
	}
	if p := peak.Load(); p > 1 {
		t.Fatalf("peak concurrency %d exceeds MaxConcurrent 1", p)
	}
	st := s.Stats()
	if st.Admitted == 0 || st.Shed == 0 {
		t.Fatalf("scheduler stats missing activity: %+v", st)
	}
}

// TestLifecycleFingerprintDeterministic drives a seeded arrival pattern
// through a pool (fork/evict spans) and a scheduler (grant order spans)
// twice and demands an identical structural trace fingerprint: the
// paper-repo contract that chaos and lifecycle behaviour replay
// deterministically from a seed.
func TestLifecycleFingerprintDeterministic(t *testing.T) {
	run := func(seed int64) string {
		tr := trace.New("lifecycle", trace.Options{})
		base := time.Unix(1700000000, 0)
		now := base
		clock := func() time.Time { return now }

		_, w := pyChain(t)
		spec, ok := workloads.PoolSpecFor(w, 64*1024, 0)
		if !ok {
			t.Fatal("python workflow should be poolable")
		}
		p, err := pool.New(spec, pool.Config{
			Min: 1, Max: 3, Seed: seed, IdleTTL: 30 * time.Second,
			Window: time.Minute, Clock: clock, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Stop()

		s := sched.New(sched.Config{MaxConcurrent: 2, MaxQueue: 8, Clock: clock})
		defer s.Close()

		rng := rand.New(rand.NewSource(seed))
		root := tr.Start("scenario", trace.CatQueue)
		for step := 0; step < 20; step++ {
			now = now.Add(time.Duration(rng.Intn(5)+1) * time.Second)
			wf := fmt.Sprintf("wf-%d", rng.Intn(3))
			grant, err := s.Admit(context.Background(), wf, 0)
			if err != nil {
				root.Child(fmt.Sprintf("shed#%d:%s", step, wf), trace.CatQueue).End()
				continue
			}
			root.Child(fmt.Sprintf("grant#%d:%s", step, wf), trace.CatQueue).End()
			if clone, hit := p.Get(); hit {
				p.Recycle(clone)
			}
			grant.Release()
			p.Maintain(now)
		}
		root.End()
		p.Stop()
		return tr.Fingerprint()
	}

	a := run(42)
	b := run(42)
	if a != b {
		t.Fatalf("same seed produced different lifecycle fingerprints:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty fingerprint: no spans recorded")
	}
	if c := run(43); c == a {
		t.Fatal("different seed produced an identical fingerprint; seeding is not wired through")
	}
}
