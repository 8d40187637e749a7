package bench

import (
	"fmt"
	"sort"
	"time"

	"alloystack/internal/faults"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// recoveryRuns is the per-arm sample count; the median run is reported.
const recoveryRuns = 3

// Recovery measures restart-based fault recovery (paper §3.1): each
// workflow runs clean and then under a seeded fault plan that panics
// one function per instance, so the reported delta is the price of
// detecting the fault, backing off and restarting inside a live WFD —
// the intermediate data survives, so recovery is re-execution of the
// failed function only, not the whole workflow.
func Recovery(o Options) (*Result, error) {
	o = o.withDefaults()
	r := newResult("recovery", "fault recovery latency (injected panic + retry, §3.1)")
	r.Header = []string{"workload", "clean", "faulted", "overhead", "retries", "backoff-wait"}
	r.Notes = []string{
		"fault plan: every instance of the target function panics once (PanicEvery N=2)",
		"retry policy: base 2ms, x2, cap 8ms, 20% jitter, seed 1",
	}

	policy := &faults.RetryPolicy{
		MaxRetries: 3,
		BaseDelay:  2 * time.Millisecond,
		MaxDelay:   8 * time.Millisecond,
		Multiplier: 2,
		Jitter:     0.2,
		MaxElapsed: time.Minute,
		Seed:       1,
	}

	run := func(target string, build func() (visor.RunOptions, error),
		wfName string) (clean, faulted *visor.RunResult, err error) {
		v := newAlloyVisor()
		workflow := workloads.FunctionChain(5, o.size(1<<20), "native")
		if wfName == "word-count" {
			workflow = workloads.WordCount(3, "native")
		}
		build2 := func(plan *faults.Plan) (visor.RunOptions, error) {
			ro, err := build()
			if err != nil {
				return ro, err
			}
			ro.Retry = policy
			ro.Faults = plan
			return ro, nil
		}
		// A single run's E2E is one scheduler quantum away from 2x noise
		// on a busy machine; each arm reports its median-E2E run of
		// three.
		medianRun := func(build func() (visor.RunOptions, error)) (*visor.RunResult, error) {
			results := make([]*visor.RunResult, 0, recoveryRuns)
			for i := 0; i < recoveryRuns; i++ {
				res, err := runAlloy(o, v, workflow, build)
				if err != nil {
					return nil, err
				}
				results = append(results, res)
			}
			sort.Slice(results, func(i, j int) bool { return results[i].E2E < results[j].E2E })
			return results[len(results)/2], nil
		}
		clean, err = medianRun(func() (visor.RunOptions, error) {
			return build2(nil)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("clean %s: %w", wfName, err)
		}
		faulted, err = medianRun(func() (visor.RunOptions, error) {
			return build2(faults.NewPlan(1, faults.PanicEvery{Func: target, N: 2}))
		})
		if err != nil {
			return nil, nil, fmt.Errorf("faulted %s: %w", wfName, err)
		}
		return clean, faulted, nil
	}

	scenarios := []struct {
		wfName string
		target string
		build  func() (visor.RunOptions, error)
	}{
		{"function-chain", "chain-2", func() (visor.RunOptions, error) {
			return alloyOpts(o, nil), nil
		}},
		{"word-count", "wc-map", func() (visor.RunOptions, error) {
			ro := alloyOpts(o, nil)
			img, err := workloads.BuildTextImage(o.size(16<<20), false)
			if err != nil {
				return ro, err
			}
			ro.DiskImage = img
			return ro, nil
		}},
	}
	for _, sc := range scenarios {
		clean, faulted, err := run(sc.target, sc.build, sc.wfName)
		if err != nil {
			return nil, err
		}
		overhead := faulted.E2E - clean.E2E
		// The fault plan is seeded, so the retry count of each arm is
		// exact: zero clean, one per instance of the target faulted.
		r.alloyCounts(countKey(sc.wfName, sc.target, "clean"), clean)
		r.alloyCounts(countKey(sc.wfName, sc.target, "faulted"), faulted)
		r.Rows = append(r.Rows, []string{
			sc.wfName + "/" + sc.target,
			ms(clean.E2E), ms(faulted.E2E), ms(overhead),
			fmt.Sprint(faulted.Retries), ms(faulted.RetryWait),
		})
	}
	return emit(o, r), nil
}
