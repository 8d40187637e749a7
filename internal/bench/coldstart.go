package bench

import (
	"fmt"
	"time"

	"alloystack/internal/metrics"
	"alloystack/internal/pool"
	"alloystack/internal/workloads"
)

// coldstartRuns is the per-arm sample count: enough for a stable p50
// and a meaningful (if coarse) p99 without making the cold arm — which
// pays the full Python bootstrap every run — take minutes.
const coldstartRuns = 8

// Coldstart contrasts cold boots against warm-pool snapshot forks for a
// Python-runtime workflow (the paper's slowest starter, §8.2): the cold
// arm pays the runtime image read plus the calibrated interpreter
// bootstrap on every invocation, while the warm arm forks a template
// that paid both once. Reported are end-to-end and boot p50/p99 per arm
// and the resulting speedup.
func Coldstart(o Options) (*Result, error) {
	o = o.withDefaults()
	size := o.size(16 << 20)
	w := workloads.FunctionChain(3, size, "python")
	v := newAlloyVisor()

	r := newResult("coldstart", "cold boot vs warm-pool snapshot fork (Python tier)")
	runArm := func(name string, p *pool.Pool) (e2e, boot []time.Duration, err error) {
		warm := p != nil
		runs := newRunTotal()
		for i := 0; i < coldstartRuns; i++ {
			ro := alloyOpts(o, nil)
			img, err := workloads.BuildEmptyImage(true)
			if err != nil {
				return nil, nil, err
			}
			ro.DiskImage = img
			if warm {
				ro.Pool = p
				ro.WarmStart = true
			}
			res, err := v.RunWorkflow(w, ro)
			if err != nil {
				return nil, nil, err
			}
			if warm && !res.WarmStart {
				return nil, nil, fmt.Errorf("coldstart: warm arm run %d fell back to a cold boot", i)
			}
			e2e = append(e2e, res.E2E)
			boot = append(boot, res.ColdStart)
			sumRuns(runs, res)
			if warm {
				// Clones are single-use; restock before the next run the
				// way the background maintenance loop would.
				p.Maintain(o.now())
			}
		}
		r.alloyCounts(name, runs)
		return e2e, boot, nil
	}

	coldE2E, coldBoot, err := runArm("cold", nil)
	if err != nil {
		return nil, err
	}

	spec, ok := workloads.PoolSpecFor(w, size, o.CostScale)
	if !ok {
		return nil, fmt.Errorf("coldstart: workflow %s not poolable", w.Name)
	}
	p, err := pool.New(spec, pool.Config{Min: 2, Max: 4, Seed: 1})
	if err != nil {
		return nil, err
	}
	defer p.Stop()
	warmE2E, warmBoot, err := runArm("warm", p)
	if err != nil {
		return nil, err
	}

	r.Header = []string{"boot", "e2e p50 (ms)", "e2e p99 (ms)", "boot p50 (ms)", "boot p99 (ms)"}
	coldE2ESum, coldBootSum := metrics.Summarize(coldE2E), metrics.Summarize(coldBoot)
	warmE2ESum, warmBootSum := metrics.Summarize(warmE2E), metrics.Summarize(warmBoot)
	arm := func(name string, e2e, boot metrics.Summary) []string {
		return []string{name, ms(e2e.P50), ms(e2e.P99), ms(boot.P50), ms(boot.P99)}
	}
	r.Rows = [][]string{
		arm("cold", coldE2ESum, coldBootSum),
		arm("warm", warmE2ESum, warmBootSum),
	}
	st := p.Stats()
	r.count("pool_hits", st.Hits)
	r.count("pool_misses", st.Misses)
	r.count("pool_forks", st.Forks)
	r.count("pool_evictions", st.Evictions)
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d runs per arm; warm pool: %d hits, %d forks, template boot %.0f ms paid once",
			coldstartRuns, st.Hits, st.Forks, st.TemplateBoot),
		fmt.Sprintf("e2e speedup p50: %.1fx, boot speedup p50: %.1fx",
			ratio(coldE2ESum.P50, warmE2ESum.P50),
			ratio(coldBootSum.P50, warmBootSum.P50)))
	return emit(o, r), nil
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
