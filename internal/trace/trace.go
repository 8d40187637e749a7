// Package trace is AlloyStack's workflow-aware tracing layer: a span
// tree per invocation, threaded from the visor's root span down through
// stage barriers, function instances, the Figure-15 phase breakdown
// (read-input / compute / transfer / wait), data-plane transfers and
// LibOS syscall-boundary crossings. The paper's evaluation is entirely
// about explaining where time and copies go inside a run; this package
// makes that explanation available per invocation instead of only as
// end-of-run aggregates.
//
// Design constraints, in order:
//
//  1. Cheap enough to leave on. A nil *Tracer (and the nil *Span it
//     hands out) is the disabled sink: every method no-ops after one
//     nil check, so instrumentation sites need no conditionals and the
//     disabled path costs nothing measurable (see BenchmarkDisabled).
//  2. Race-clean. Spans are built by the goroutine that owns them and
//     published to the tracer under one mutex at End.
//  3. Deterministic under seeded chaos. Span identity used for
//     cross-run comparison is structural — category, name, parent
//     name — never timestamps or allocation order; Fingerprint()
//     canonicalises the tree exactly like faults.Plan.Fingerprint
//     canonicalises an injected-fault log.
//
// Export surfaces: Chrome trace_event JSON (chrome.go, loadable in
// Perfetto/chrome://tracing) and the flight dump (FlightDump), the
// tail of the tracer's own spans printed when a run dies mid-flight.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories used across the stack. Instrumentation sites pass
// them as the cat argument; exports use them to colour/filter.
const (
	CatInvoke  = "invoke"  // one root span per workflow invocation
	CatStage   = "stage"   // one span per DAG stage barrier
	CatFunc    = "func"    // one span per function instance
	CatAttempt = "attempt" // one span per retried attempt
	CatPhase   = "phase"   // Figure-15 breakdown: read-input/compute/transfer/wait
	CatXfer    = "xfer"    // one span per data-plane Send/Recv
	CatSyscall = "syscall" // one span per LibOS boundary crossing
	CatQueue   = "queue"   // admission queue wait before the run starts
	CatBoot    = "boot"    // WFD boot: boot(cold) instantiate or boot(warm) pool fork
	CatPool    = "pool"    // warm-pool lifecycle: template boot, refill, evict
	CatJournal = "journal" // durability: barrier spill/commit, resume import
	CatComp    = "comp"    // saga compensation handler execution
)

// SpanData is one completed span: the exported, plain-value form.
type SpanData struct {
	ID         uint64
	Parent     uint64
	ParentName string
	Name       string
	Cat        string
	Lane       int64 // export lane (Chrome tid): function-instance track
	Start      time.Time
	Dur        time.Duration
	Attrs      map[string]string
}

// EventData is one instant event (fault injection, retry, custom
// marker) anchored to the span that was active when it fired.
type EventData struct {
	Name     string
	SpanID   uint64
	SpanName string
	When     time.Time
}

// Options configure a Tracer.
type Options struct {
	// TraceID names the trace; empty derives a process-unique ID from
	// the proc label. The ID is fixed for the tracer's lifetime: a
	// caller that propagates an ID from upstream builds the tracer
	// with it.
	TraceID string //asvet:allow unreachable -- test seam: fingerprint tests pin the ID; ROADMAP 6's propagated request ID is its planned shipped writer
	// Syscalls enables per-LibOS-crossing spans (verbose; off by
	// default because a large run makes thousands of them).
	Syscalls bool
}

// traceSeq makes default trace IDs process-unique without randomness,
// keeping traces reproducible run to run.
var traceSeq atomic.Uint64

// Tracer collects one process's spans for one (or more) invocations.
// The nil *Tracer is the disabled sink: safe everywhere, records
// nothing.
type Tracer struct {
	proc     string
	syscalls bool
	traceID  string

	mu     sync.Mutex
	seq    uint64
	spans  []SpanData
	events []EventData
}

// New builds a tracer labelled with a process/node name ("node1",
// "watchdog"). The label becomes the Chrome process name on export.
func New(proc string, opts Options) *Tracer {
	id := opts.TraceID
	if id == "" {
		id = fmt.Sprintf("%s-%d", proc, traceSeq.Add(1))
	}
	return &Tracer{
		proc:     proc,
		syscalls: opts.Syscalls,
		traceID:  id,
	}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Proc returns the process label ("" when disabled).
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// TraceID returns the trace identifier ("" when disabled). It is fixed
// when the tracer is built.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// nextID hands out span IDs. IDs order publication, not structure;
// cross-run comparison uses Fingerprint, which ignores them.
func (t *Tracer) nextID() uint64 {
	t.seq++
	return t.seq
}

// Start opens a root span. Returns nil (the no-op span) on a nil
// tracer.
func (t *Tracer) Start(name, cat string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := t.nextID()
	t.mu.Unlock()
	return &Span{tr: t, data: SpanData{ID: id, Name: name, Cat: cat, Start: time.Now()}}
}

// publish appends a completed span (called once per span, at End).
func (t *Tracer) publish(sd SpanData) {
	t.mu.Lock()
	t.spans = append(t.spans, sd)
	t.mu.Unlock()
}

// Spans snapshots the completed spans, ordered by start time so
// exports and fingerprints are independent of publication order.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Events snapshots the recorded instant events in arrival order.
func (t *Tracer) Events() []EventData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]EventData, len(t.events))
	copy(out, t.events)
	return out
}

// PhaseTotals sums completed CatPhase span durations by name — the
// trace-side view of the StageClock breakdown. An exported trace whose
// PhaseTotals disagree with the clock indicates a missed
// instrumentation site.
func (t *Tracer) PhaseTotals() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, sd := range t.Spans() {
		if sd.Cat == CatPhase {
			out[sd.Name] += sd.Dur
		}
	}
	return out
}

// Span is a handle on an in-flight span. The nil *Span is the no-op
// handle: every method returns immediately, so disabled tracing costs
// one pointer test per instrumentation site.
type Span struct {
	tr   *Tracer
	data SpanData
	done atomic.Bool
}

// Child opens a sub-span. The child inherits the parent's export lane.
func (s *Span) Child(name, cat string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	id := t.nextID()
	t.mu.Unlock()
	return &Span{tr: t, data: SpanData{
		ID:         id,
		Parent:     s.data.ID,
		ParentName: s.data.Name,
		Name:       name,
		Cat:        cat,
		Lane:       s.data.Lane,
		Start:      time.Now(),
	}}
}

// Syscall opens a CatSyscall child only when the tracer asked for
// syscall-level detail; the common path is a single nil/flag test.
func (s *Span) Syscall(name string) *Span {
	if s == nil || !s.tr.syscalls {
		return nil
	}
	return s.Child(name, CatSyscall)
}

// Complete records a child span retroactively from an external
// measurement — the stage clock's (start, duration) pair — so the
// trace and the clock report the identical number.
func (s *Span) Complete(name, cat string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	id := t.nextID()
	t.mu.Unlock()
	t.publish(SpanData{
		ID:         id,
		Parent:     s.data.ID,
		ParentName: s.data.Name,
		Name:       name,
		Cat:        cat,
		Lane:       s.data.Lane,
		Start:      start,
		Dur:        d,
	})
}

// SetAttr attaches a key/value attribute (byte counts, transport
// kinds). Call before End, from the owning goroutine.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 4)
	}
	s.data.Attrs[key] = fmt.Sprint(val)
}

// SetLane pins the span (and its future children) to an export lane —
// the Chrome tid. The visor assigns one lane per function instance so
// parallel instances render as parallel tracks.
func (s *Span) SetLane(lane int64) {
	if s == nil {
		return
	}
	s.data.Lane = lane
}

// Name returns the span's name ("" on the no-op span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.data.Name
}

// Event records an instant event anchored to this span — the flight
// dump's "what was active when the fault fired" marker.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	ev := EventData{Name: name, SpanID: s.data.ID, SpanName: s.data.Name, When: time.Now()}
	t := s.tr
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// End completes the span and publishes it. Ending twice is a no-op, so
// deferred Ends compose with early explicit ones.
func (s *Span) End() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	s.data.Dur = time.Since(s.data.Start)
	s.tr.publish(s.data)
}

// flightSpans is how many of the most recently published spans a
// flight dump prints.
const flightSpans = 256

// FlightDump writes a human-readable post-mortem to w: the reason,
// every recorded event with the span it interrupted, and the last
// flightSpans published spans in start order. No-op when tracing is
// disabled or w is nil — callers need no conditionals on the failure
// path.
func (t *Tracer) FlightDump(w io.Writer, reason string) {
	if t == nil || w == nil {
		return
	}
	t.mu.Lock()
	seen := len(t.spans)
	spans := append([]SpanData(nil), t.spans[max(0, seen-flightSpans):]...)
	events := append([]EventData(nil), t.events...)
	t.mu.Unlock()

	fmt.Fprintf(w, "\n--- flight recorder: %s ---\n", reason)
	if len(events) > 0 {
		fmt.Fprintf(w, "events (%d):\n", len(events))
		for _, ev := range events {
			fmt.Fprintf(w, "  %s  active span: %s\n", ev.Name, ev.SpanName)
		}
	} else {
		fmt.Fprintln(w, "events: none recorded")
	}
	if seen > len(spans) {
		fmt.Fprintf(w, "spans: last %d of %d (older spans evicted)\n", len(spans), seen)
	} else {
		fmt.Fprintf(w, "spans: %d\n", len(spans))
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	for _, sd := range spans {
		attrs := ""
		if len(sd.Attrs) > 0 {
			keys := make([]string, 0, len(sd.Attrs))
			for k := range sd.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				attrs += fmt.Sprintf(" %s=%s", k, sd.Attrs[k])
			}
		}
		fmt.Fprintf(w, "  [%-7s] %-28s %10s%s\n",
			sd.Cat, sd.Name, sd.Dur.Round(time.Microsecond), attrs)
	}
	fmt.Fprintf(w, "--- end flight recorder ---\n")
}
