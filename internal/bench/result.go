package bench

import (
	"fmt"
	"strings"
	"time"

	"alloystack/internal/baselines"
	"alloystack/internal/metrics"
	"alloystack/internal/visor"
)

// Result is the outcome of one experiment: the paper-style table
// (Header, Rows, Notes) that EXPERIMENTS.md is made from, and the
// deterministic counts — copies, crossings, modules loaded, retries,
// pool forks — that `go test ./internal/bench` compares for exact
// equality against testdata/counts.golden. Times live only in the table.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	counts map[string]int64
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, counts: make(map[string]int64)}
}

// Report assembles the aligned-text-table view.
func (r *Result) Report() *Report {
	return &Report{ID: r.ID, Title: r.Title, Header: r.Header, Rows: r.Rows, Notes: r.Notes}
}

// count records a deterministic count under name and returns its table
// cell. A name is recorded once per result; a second write is a bug in
// the experiment, not a value to sum.
func (r *Result) count(name string, v int64) string {
	if _, dup := r.counts[name]; dup {
		panic("bench: " + r.ID + ": count " + name + " recorded twice")
	}
	r.counts[name] = v
	return fmt.Sprint(v)
}

// alloyCounts records what every AlloyStack run returns beside its
// times: MPK crossings, payload copies and bytes per transport kind,
// function retries and stages skipped on resume.
func (r *Result) alloyCounts(arm string, res *visor.RunResult) {
	r.count(countKey("crossings", arm), int64(res.Crossings))
	r.count(countKey("retries", arm), int64(res.Retries))
	r.count(countKey("stages_skipped", arm), int64(res.StagesSkipped))
	r.transferCounts(arm, res.Transfer)
}

// baselineCounts records what a comparison system's run moved: payload
// copies and bytes per transport kind, so a baseline that runs the
// shared app code is held to the same exact counts as AlloyStack.
func (r *Result) baselineCounts(arm string, res *baselines.Result) {
	r.transferCounts(arm, res.Transfer)
}

func (r *Result) transferCounts(arm string, t *metrics.TransportStats) {
	for kind, k := range t.Kinds() {
		r.count(countKey("copies", arm, kind), k.Copies)
		r.count(countKey("bytes", arm, kind), k.Bytes)
	}
}

// newRunTotal is the empty total sumRuns adds to.
func newRunTotal() *visor.RunResult {
	return &visor.RunResult{Transfer: metrics.NewTransportStats()}
}

// sumRuns folds one run's counts into the total of a sweep of runs.
func sumRuns(total, res *visor.RunResult) {
	total.Crossings += res.Crossings
	total.Retries += res.Retries
	total.StagesSkipped += res.StagesSkipped
	total.MemPeak += res.MemPeak
	total.Transfer.Merge(res.Transfer)
}

// countKey joins name parts into a count identifier, squeezing out the
// characters table labels use that a space-separated golden line cannot
// carry.
func countKey(parts ...string) string {
	s := strings.Join(parts, "/")
	return strings.NewReplacer(" ", "_", "(", "", ")", "").Replace(s)
}

// wallNow is the single approved wall-clock read in this package, the
// default Options.Clock. Every measurement loop reads the injected
// clock, which is what asvet's wallclock analyzer enforces.
func wallNow() time.Time {
	return time.Now() //asvet:allow wallclock -- the one approved injection point: the default clock
}
