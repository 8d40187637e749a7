package bench

import (
	"fmt"
	"os"
	"time"

	"alloystack/internal/faults"
	"alloystack/internal/journal"
	"alloystack/internal/metrics"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// crashresumeRuns is the per-arm sample count: enough for a stable p50
// and a coarse p99 without making the suite crawl — each iteration runs
// the ~1 s workflow four times (plain, durable, crash, resume).
const crashresumeRuns = 7

// CrashResume quantifies what the durability journal buys and what it
// costs. Three arms over the interpreter-tier function chain (5 Python
// functions, the paper's Fig-13 configuration) — the representative
// serverless case, where per-function compute dominates and barrier
// payloads are small relative to it:
//
//	plain    — no journal: what a lost run costs to re-run from scratch
//	           (the only recovery a journal-less deployment has)
//	durable  — journal on, no crash: the group-committed write-ahead
//	           overhead a healthy run pays (target: < 5% over plain)
//	resume   — crash after the second stage's barrier commit, then
//	           resume from the journal: committed stages are skipped and
//	           their spilled outputs re-imported
//
// The crash uses the seeded soft crashpoint (no CrashFn installed), so
// the journal is left exactly as a killed process would leave it:
// unsealed, committed prefix 2 of 5.
func CrashResume(o Options) (*Result, error) {
	o = o.withDefaults()
	size := o.size(16 << 20)
	w := workloads.FunctionChain(5, size, "python")
	v := newAlloyVisor()

	dir := o.ArtifactsDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "asbench-journal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}

	var plain, durable, resume []time.Duration
	plainRuns, durableRuns, resumeRuns := newRunTotal(), newRunTotal(), newRunTotal()
	skipped, replayed := 0, 0

	// Input images are single-use (runs consume them), so every
	// invocation builds a fresh one outside the timed window.
	buildOpts := func(mutate func(*visor.RunOptions)) (visor.RunOptions, error) {
		ro := alloyOpts(o, mutate)
		img, err := workloads.BuildEmptyImage(true)
		if err != nil {
			return ro, err
		}
		ro.DiskImage = img
		return ro, nil
	}

	for i := 0; i < crashresumeRuns; i++ {
		// Arm 1: plain run — also the cold re-run cost after a crash.
		ro, err := buildOpts(nil)
		if err != nil {
			return nil, err
		}
		start := o.now()
		res, err := v.RunWorkflow(w, ro)
		if err != nil {
			return nil, fmt.Errorf("plain run %d: %w", i, err)
		}
		plain = append(plain, o.since(start))
		sumRuns(plainRuns, res)

		// Arm 2: durable run, no crash.
		ro, err = buildOpts(func(r *visor.RunOptions) {
			r.Journal = store
		})
		if err != nil {
			return nil, err
		}
		start = o.now()
		if res, err = v.RunWorkflow(w, ro); err != nil {
			return nil, fmt.Errorf("durable run %d: %w", i, err)
		}
		durable = append(durable, o.since(start))
		sumRuns(durableRuns, res)

		// Arm 3: crash after the second barrier's commit (not timed),
		// then resume.
		co, err := buildOpts(func(r *visor.RunOptions) {
			r.Journal = store
			r.Faults = faults.NewPlan(int64(i+1), faults.Crash{Point: "after-commit:1"})
		})
		if err != nil {
			return nil, err
		}
		cres, cerr := v.RunWorkflow(w, co)
		if cerr == nil || cres == nil || cres.RunID == "" {
			return nil, fmt.Errorf("crash run %d: expected crashpoint, got res=%v err=%v", i, cres, cerr)
		}
		rro, err := buildOpts(func(r *visor.RunOptions) {
			r.Journal = store
			r.Resume = cres.RunID
		})
		if err != nil {
			return nil, err
		}
		start = o.now()
		rres, rerr := v.RunWorkflow(w, rro)
		if rerr != nil {
			return nil, fmt.Errorf("resume run %d: %w", i, rerr)
		}
		resume = append(resume, o.since(start))
		sumRuns(resumeRuns, rres)
		skipped = rres.StagesSkipped
		replayed = len(rres.Stages) - rres.StagesSkipped
	}

	plainSum, durableSum, resumeSum := metrics.Summarize(plain), metrics.Summarize(durable), metrics.Summarize(resume)
	overhead := 100 * (float64(durableSum.P50) - float64(plainSum.P50)) / float64(plainSum.P50)

	r := newResult("crashresume", "durable-run journal: crash-resume vs cold re-run (python chain x5)")
	r.Header = []string{"arm", "p50 (ms)", "p99 (ms)", "stages run"}
	r.Rows = [][]string{
		{"plain (cold re-run)", ms(plainSum.P50), ms(plainSum.P99), "5"},
		{"durable (no crash)", ms(durableSum.P50), ms(durableSum.P99), "5"},
		{"resume after crash", ms(resumeSum.P50), ms(resumeSum.P99),
			fmt.Sprintf("%d (%d skipped)", replayed, skipped)},
	}
	r.alloyCounts("plain", plainRuns)
	r.alloyCounts("durable", durableRuns)
	r.alloyCounts("resume", resumeRuns)
	// st.Bytes stays out of the counts: every journal record carries a
	// timestamp, so the encoded size varies run to run.
	st := store.Stats()
	r.count("journal_appends", st.Appends)
	r.count("journal_resumes", st.Resumes)
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d runs per arm; crash point after-commit:1 → committed prefix 2 of 5", crashresumeRuns),
		fmt.Sprintf("journal: %d appends, %d bytes, %d resumes (group-commit fsync)",
			st.Appends, st.Bytes, st.Resumes),
		fmt.Sprintf("durable overhead p50: %+.1f%% (target < 5%%); resume speedup p50: %.1fx vs cold re-run",
			overhead, ratio(plainSum.P50, resumeSum.P50)))
	if o.ArtifactsDir != "" {
		r.Notes = append(r.Notes, fmt.Sprintf("journal artifacts kept in %s", dir))
	}
	return emit(o, r), nil
}
