// Package metrics provides the measurement plumbing for the evaluation
// harness and the node's /metrics: percentile summaries of latency
// samples (Figure 17a), per-function stage clocks for the read-input /
// compute / transfer breakdown (Figure 15), per-transport counters,
// constant-memory histograms, SLO burn rates and the Prometheus
// exposition writer and parser.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Summary is a percentile digest of a sample set. Durations marshal as
// integer nanoseconds, so a recorded summary round-trips exactly.
type Summary struct {
	Count int           `json:"count"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// Summarize digests a sample slice without mutating it. No samples
// yield a zero Summary.
func Summarize(samples []time.Duration) Summary {
	var s Summary
	s.Count = len(samples)
	if s.Count == 0 {
		return s
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	s.Mean = total / time.Duration(len(sorted))
	s.P50 = percentile(sorted, 50)
	s.P90 = percentile(sorted, 90)
	s.P99 = percentile(sorted, 99)
	return s
}

// percentile returns the nearest-rank percentile of a sorted slice.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Stage identifies one phase of a function's execution (Figure 15).
type Stage int

// The three stages the paper breaks function execution into, plus the
// fan-in synchronisation wait it plots as the unhatched area.
const (
	StageReadInput Stage = iota
	StageCompute
	StageTransfer
	StageWait
	numStages
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageReadInput:
		return "read-input"
	case StageCompute:
		return "compute"
	case StageTransfer:
		return "transfer"
	case StageWait:
		return "wait"
	}
	return "?"
}

// StageClock accumulates per-stage time across the functions of one
// workflow run. Safe for concurrent use by parallel function instances.
type StageClock struct {
	mu    sync.Mutex
	total [numStages]time.Duration
}

// NewStageClock returns a zeroed clock.
func NewStageClock() *StageClock { return &StageClock{} }

// Add charges d to stage.
func (c *StageClock) Add(stage Stage, d time.Duration) {
	c.mu.Lock()
	c.total[stage] += d
	c.mu.Unlock()
}

// Time runs fn, charging its duration to stage.
func (c *StageClock) Time(stage Stage, fn func() error) error {
	start := time.Now()
	err := fn()
	c.Add(stage, time.Since(start))
	return err
}

// Total reports the accumulated time for stage.
func (c *StageClock) Total(stage Stage) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total[stage]
}

// Breakdown returns all stage totals keyed by stage name.
func (c *StageClock) Breakdown() map[string]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]time.Duration, numStages)
	for s := Stage(0); s < numStages; s++ {
		out[s.String()] = c.total[s]
	}
	return out
}

// TransportKind is one row of a TransportStats table: the per-transport
// counters backing the copies-per-byte column of the Figure 11/14
// reports. Payload copies are charged by the transport implementations
// themselves (internal/xfer): the refpass path charges zero for
// in-place buffer handoff, while store-mediated paths charge one copy
// per direction.
type TransportKind struct {
	Bytes       int64 `json:"bytes"`        // payload bytes moved through Send/Recv
	Copies      int64 `json:"copies"`       // payload copies made end to end
	Ops         int64 `json:"ops"`          // Send+Recv operations completed
	SlotsReused int64 `json:"slots_reused"` // buffers recycled by the pooled allocator
}

// TransportStats aggregates per-kind transfer counters for one run.
// Safe for concurrent use by parallel stage instances.
type TransportStats struct {
	mu    sync.Mutex
	kinds map[string]*TransportKind
}

// NewTransportStats returns an empty counter table.
func NewTransportStats() *TransportStats {
	return &TransportStats{kinds: make(map[string]*TransportKind)}
}

func (t *TransportStats) kind(kind string) *TransportKind {
	k, ok := t.kinds[kind]
	if !ok {
		k = &TransportKind{}
		t.kinds[kind] = k
	}
	return k
}

// CountOp charges one transfer operation moving n payload bytes with
// the given number of payload copies.
func (t *TransportStats) CountOp(kind string, bytes, copies int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	k := t.kind(kind)
	k.Bytes += bytes
	k.Copies += copies
	k.Ops++
	t.mu.Unlock()
}

// CountReuse records that the pooled allocator recycled a buffer.
func (t *TransportStats) CountReuse(kind string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.kind(kind).SlotsReused++
	t.mu.Unlock()
}

// Kind returns a snapshot of the counters for one transport kind.
func (t *TransportStats) Kind(kind string) TransportKind {
	if t == nil {
		return TransportKind{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if k, ok := t.kinds[kind]; ok {
		return *k
	}
	return TransportKind{}
}

// Kinds returns a snapshot of all per-kind counters.
func (t *TransportStats) Kinds() map[string]TransportKind {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]TransportKind, len(t.kinds))
	for name, k := range t.kinds {
		out[name] = *k
	}
	return out
}

// add accumulates another kind's counters into k.
func (k *TransportKind) add(o TransportKind) {
	k.Bytes += o.Bytes
	k.Copies += o.Copies
	k.Ops += o.Ops
	k.SlotsReused += o.SlotsReused
}

// String renders one kind's counters for reports.
func (k TransportKind) String() string {
	return fmt.Sprintf("%s in %d ops, %d copies, %d slots reused",
		FormatBytes(k.Bytes), k.Ops, k.Copies, k.SlotsReused)
}

// Totals sums the counters across every transport kind, taking the
// lock once rather than once per kind.
func (t *TransportStats) Totals() TransportKind {
	var sum TransportKind
	if t == nil {
		return sum
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range t.kinds {
		sum.add(*k)
	}
	return sum
}

// Merge folds another stats table into this one (the watchdog
// aggregates per-run tables into its process-lifetime view).
func (t *TransportStats) Merge(other *TransportStats) {
	if t == nil || other == nil {
		return
	}
	for name, k := range other.Kinds() {
		t.mu.Lock()
		t.kind(name).add(k)
		t.mu.Unlock()
	}
}

// String renders the per-kind counters on one line per kind, sorted by
// kind name — the shared formatting asbench, asctl and the trace demo
// print instead of ad-hoc variants.
func (t *TransportStats) String() string {
	kinds := t.Kinds()
	if len(kinds) == 0 {
		return "no transfers"
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s: %s", name, kinds[name])
	}
	return strings.Join(parts, "\n")
}

// CopiesPerByte reports payload copies divided by payload bytes for one
// kind — the auditable zero-copy figure (0 on the refpass path).
func (t *TransportStats) CopiesPerByte(kind string) float64 {
	k := t.Kind(kind)
	if k.Bytes == 0 {
		return 0
	}
	return float64(k.Copies) / float64(k.Bytes)
}

// FormatBytes renders a byte count in human units for reports.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
