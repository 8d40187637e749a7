package bench

import (
	"fmt"
	"sync"
	"time"

	"alloystack/internal/baselines"
	"alloystack/internal/metrics"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// Fig17a measures P99 latency under increasing offered load (paper
// Appendix Figure 17a): ParallelSorting (25 MB scaled, 3 instances) on
// AlloyStack vs Faastlane-refer-kata, closed-loop with K concurrent
// clients per level.
func Fig17a(o Options) (*Result, error) {
	o = o.withDefaults()
	size := o.size(25 << 20)
	// Concurrency levels stand in for the paper's QPS sweep; each level
	// runs enough invocations for a stable P99-ish tail estimate.
	levels := []int{1, 2, 4, 8}
	perLevel := 3 * o.Iterations

	rep := newResult("fig17a", "tail latency under load (paper Fig 17a)")
	rep.Header = []string{"Concurrency", "AS P50 (ms)", "AS P99 (ms)", "Kata P50 (ms)", "Kata P99 (ms)"}
	rep.Notes = []string{
		"paper: Faastlane-refer-kata P99 grows sharply with QPS (rootfs and cgroup",
		"bottlenecks); AlloyStack degrades only at CPU saturation",
	}

	v := newAlloyVisor()
	for _, level := range levels {
		asSum, asRuns, err := loadSweepAS(o, v, size, level, perLevel)
		if err != nil {
			return nil, fmt.Errorf("fig17a AS level %d: %w", level, err)
		}
		rep.alloyCounts(fmt.Sprintf("c%d", level), asRuns)
		kataSum, err := loadSweepBaseline(o, size, level, perLevel)
		if err != nil {
			return nil, fmt.Errorf("fig17a kata level %d: %w", level, err)
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(level), ms(asSum.P50), ms(asSum.P99), ms(kataSum.P50), ms(kataSum.P99),
		})
	}
	return emit(o, rep), nil
}

func loadSweepAS(o Options, v *visor.Visor, size int64, concurrency, total int) (metrics.Summary, *visor.RunResult, error) {
	// Exact percentiles over every run: run i owns samples[i].
	samples := make([]time.Duration, total)
	runs := newRunTotal()
	var mu sync.Mutex
	w := workloads.ParallelSorting(3, "native")
	var wg sync.WaitGroup
	errCh := make(chan error, concurrency)
	work := make(chan int, total)
	for i := 0; i < total; i++ {
		work <- i
	}
	close(work)
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				ro := alloyOpts(o, func(r *visor.RunOptions) {
					r.Ramfs = workloads.BuildBinRamfs(size, false)
				})
				start := o.now()
				res, err := v.RunWorkflow(w, ro)
				if err != nil {
					errCh <- err
					return
				}
				samples[i] = o.since(start)
				mu.Lock()
				sumRuns(runs, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return metrics.Summary{}, nil, err
	}
	return metrics.Summarize(samples), runs, nil
}

func loadSweepBaseline(o Options, size int64, concurrency, total int) (metrics.Summary, error) {
	samples := make([]time.Duration, total)
	w := workloads.ParallelSorting(3, "native")
	inputs := map[string][]byte{workloads.BinInputPath: workloads.GenU64s(size, 42)}
	costs := baselines.DefaultCosts()

	var wg sync.WaitGroup
	errCh := make(chan error, concurrency)
	work := make(chan int, total)
	for i := 0; i < total; i++ {
		work <- i
	}
	close(work)
	var contendMu sync.Mutex
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r, err := baselines.NewRunner(baselines.Config{
					System:    baselines.SysFaastlaneReferKata,
					Costs:     costs,
					CostScale: o.CostScale,
					Inputs:    inputs,
				})
				if err != nil {
					errCh <- err
					return
				}
				start := o.now()
				_, err = r.RunWorkflow(w)
				r.Close()
				if err != nil {
					errCh <- err
					return
				}
				// Rootfs storage and host-kernel cgroup contention
				// serialise sandbox setup under concurrency (paper
				// citing RunD); model as a serialised critical section
				// proportional to concurrency.
				if concurrency > 1 {
					contendMu.Lock()
					d := time.Duration(float64(concurrency) * 10 * float64(time.Millisecond) * o.CostScale)
					time.Sleep(d)
					contendMu.Unlock()
				}
				samples[i] = o.since(start)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return metrics.Summary{}, err
	}
	return metrics.Summarize(samples), nil
}

// Fig17b reports CPU and memory usage as workflow instances scale
// (paper Appendix Figure 17b), ParallelSorting 25 MB scaled, 5 instances
// per stage.
func Fig17b(o Options) (*Result, error) {
	o = o.withDefaults()
	size := o.size(25 << 20)
	counts := []int{1, 2, 4, 8}
	rep := newResult("fig17b", "CPU and memory usage vs workflow instances (paper Fig 17b)")
	rep.Header = []string{"Workflows", "AS CPU (ms)", "AS mem", "Kata CPU (ms)", "Kata mem"}
	rep.Notes = []string{
		"paper: AlloyStack reduces CPU 2.4x and memory 3.2x vs Faastlane-refer-kata;",
		"the MicroVM rows add the guest kernel's fixed footprint per workflow",
		"(128 MiB resident guest kernel + page tables [est]) and its boot CPU time",
	}
	costs := baselines.DefaultCosts()
	const guestKernelFootprint = int64(128 << 20)

	v := newAlloyVisor()
	w := workloads.ParallelSorting(5, "native")
	for _, n := range counts {
		// AlloyStack: run n concurrent workflows, sum measured usage.
		var wg sync.WaitGroup
		var mu sync.Mutex
		var asCPU time.Duration
		asRuns := newRunTotal()
		errCh := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ro := alloyOpts(o, func(r *visor.RunOptions) {
					r.Ramfs = workloads.BuildBinRamfs(size, false)
				})
				res, err := v.RunWorkflow(w, ro)
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				// CPU: the stage-clock sum approximates on-CPU time.
				asCPU += res.Clock.Total(metrics.StageReadInput) +
					res.Clock.Total(metrics.StageCompute) +
					res.Clock.Total(metrics.StageTransfer)
				sumRuns(asRuns, res)
				mu.Unlock()
			}()
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return nil, fmt.Errorf("fig17b AS n=%d: %w", n, err)
		}

		// Faastlane-refer-kata: measured platform work plus the modelled
		// guest-kernel footprint and boot CPU per workflow.
		r, err := baselines.NewRunner(baselines.Config{
			System:    baselines.SysFaastlaneReferKata,
			Costs:     costs,
			CostScale: o.CostScale,
			Inputs:    map[string][]byte{workloads.BinInputPath: workloads.GenU64s(size, 42)},
		})
		if err != nil {
			return nil, err
		}
		var kataCPU time.Duration
		var kataMem int64
		for i := 0; i < n; i++ {
			res, err := r.RunWorkflow(w)
			if err != nil {
				r.Close()
				return nil, fmt.Errorf("fig17b kata n=%d: %w", n, err)
			}
			kataCPU += res.Clock.Total(metrics.StageReadInput) +
				res.Clock.Total(metrics.StageCompute) +
				res.Clock.Total(metrics.StageTransfer) +
				scaledDur(costs.MicroVMBoot, o.CostScale) // boot burns CPU
			kataMem += guestKernelFootprint + size*2
		}
		r.Close()

		asMem := int64(asRuns.MemPeak)
		rep.count(fmt.Sprintf("mem_bytes/n%d/AS", n), asMem)
		rep.count(fmt.Sprintf("mem_bytes/n%d/kata", n), kataMem)
		rep.alloyCounts(fmt.Sprintf("n%d", n), asRuns)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(n), ms(asCPU), metrics.FormatBytes(asMem), ms(kataCPU), metrics.FormatBytes(kataMem),
		})
	}
	return emit(o, rep), nil
}

func scaledDur(d time.Duration, scale float64) time.Duration {
	if scale <= 0 {
		return 0
	}
	return time.Duration(float64(d) * scale)
}
