package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	if tr.TraceID() != "" || tr.Proc() != "" {
		t.Fatal("nil tracer has identity")
	}
	sp := tr.Start("root", CatInvoke)
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	// Every span method must no-op on the nil handle.
	child := sp.Child("c", CatStage)
	child.SetAttr("k", 1)
	child.SetLane(3)
	child.Event("boom")
	child.Complete("p", CatPhase, time.Now(), time.Second)
	if child.Syscall("open") != nil {
		t.Fatal("nil span produced syscall span")
	}
	child.End()
	sp.End()
	tr.FlightDump(&bytes.Buffer{}, "r")
	if tr.Spans() != nil || tr.Events() != nil {
		t.Fatal("nil tracer has data")
	}
	if tr.Fingerprint() != "" {
		t.Fatal("nil tracer has fingerprint")
	}
}

func TestSpanTreeAndPhaseTotals(t *testing.T) {
	tr := New("node", Options{TraceID: "tid-1"})
	root := tr.Start("invoke:wf", CatInvoke)
	stage := root.Child("stage-0", CatStage)
	fn := stage.Child("f[0]", CatFunc)
	fn.SetLane(7)
	start := time.Now()
	fn.Complete("compute", CatPhase, start, 30*time.Millisecond)
	fn.Complete("compute", CatPhase, start, 10*time.Millisecond)
	fn.Complete("transfer", CatPhase, start, 5*time.Millisecond)
	fn.End()
	stage.End()
	root.End()

	totals := tr.PhaseTotals()
	if totals["compute"] != 40*time.Millisecond || totals["transfer"] != 5*time.Millisecond {
		t.Fatalf("phase totals = %v", totals)
	}
	spans := tr.Spans()
	if len(spans) != 6 {
		t.Fatalf("span count = %d", len(spans))
	}
	// Children inherit the lane set on their parent at creation time.
	for _, sd := range spans {
		if sd.ParentName == "f[0]" && sd.Lane != 7 {
			t.Fatalf("lane not inherited: %+v", sd)
		}
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New("n", Options{TraceID: "x"})
		root := tr.Start("invoke:w", CatInvoke)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := root.Child("inst", CatFunc)
				s.Event("injected")
				s.End()
			}()
		}
		wg.Wait()
		root.End()
		return tr
	}
	a, b := build().Fingerprint(), build().Fingerprint()
	if a != b {
		t.Fatalf("fingerprints differ:\n%s\n--\n%s", a, b)
	}
	if !strings.Contains(a, "func:invoke:w>inst") {
		t.Fatalf("fingerprint missing structure: %s", a)
	}
}

func TestChromeExport(t *testing.T) {
	tr := New("node1", Options{TraceID: "trace-9"})
	root := tr.Start("invoke:wf", CatInvoke)
	c := root.Child("stage-0", CatStage)
	c.SetAttr("bytes", 4096)
	c.Event("injected panic")
	c.End()
	root.End()

	var buf bytes.Buffer
	if err := ExportChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.OtherData["trace_id"] != "trace-9" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
	var haveMeta, haveSpan, haveEvent bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			haveMeta = true
		case "X":
			haveSpan = true
			args := ev["args"].(map[string]any)
			if args["trace_id"] != "trace-9" {
				t.Fatalf("span missing trace id: %v", ev)
			}
		case "i":
			haveEvent = true
		}
	}
	if !haveMeta || !haveSpan || !haveEvent {
		t.Fatalf("export missing event kinds: meta=%v span=%v event=%v", haveMeta, haveSpan, haveEvent)
	}
}

func TestFlightRecorderRingAndDump(t *testing.T) {
	tr := New("node", Options{TraceID: "t"})
	root := tr.Start("invoke:w", CatInvoke)
	for i := 0; i < flightSpans+10; i++ {
		s := root.Child("s", CatSyscall)
		s.End()
	}
	inst := root.Child("wc-map[1]", CatFunc)
	inst.Event("injected panic wc-map[1] attempt 0")
	inst.End()
	root.End()

	var buf bytes.Buffer
	tr.FlightDump(&buf, "run failed: boom")
	out := buf.String()
	for _, want := range []string{
		"flight recorder: run failed: boom",
		"injected panic wc-map[1] attempt 0",
		"active span: wc-map[1]",
		fmt.Sprintf("spans: last %d of %d (older spans evicted)", flightSpans, flightSpans+12),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n  [syscall]"); got != flightSpans-2 {
		t.Fatalf("dump prints %d syscall spans, want the last %d spans minus wc-map[1] and the root", got, flightSpans)
	}
	// Nil-safety of the dump path.
	var none *Tracer
	none.FlightDump(&buf, "x")
	tr.FlightDump(nil, "x")
}

func TestSyscallSpansGated(t *testing.T) {
	quiet := New("n", Options{})
	sp := quiet.Start("r", CatInvoke)
	if sp.Syscall("fdtab.open") != nil {
		t.Fatal("syscall span recorded without opt-in")
	}
	sp.End()
	verbose := New("n", Options{Syscalls: true})
	vr := verbose.Start("r", CatInvoke)
	sc := vr.Syscall("fdtab.open")
	if sc == nil {
		t.Fatal("syscall span missing with opt-in")
	}
	sc.End()
	vr.End()
	var found bool
	for _, sd := range verbose.Spans() {
		if sd.Cat == CatSyscall && sd.Name == "fdtab.open" {
			found = true
		}
	}
	if !found {
		t.Fatal("syscall span not published")
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := New("n", Options{})
	s := tr.Start("r", CatInvoke)
	s.End()
	s.End()
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("double End published %d spans", got)
	}
}

func TestConcurrentSpansRaceClean(t *testing.T) {
	tr := New("n", Options{TraceID: "c"})
	root := tr.Start("invoke", CatInvoke)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := root.Child("inst", CatFunc)
			s.SetLane(int64(i))
			s.SetAttr("i", i)
			for j := 0; j < 10; j++ {
				c := s.Child("op", CatXfer)
				c.Event("tick")
				c.End()
			}
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(tr.Spans()); got != 1+16+160 {
		t.Fatalf("span count = %d", got)
	}
}

// BenchmarkDisabled measures the no-op sink: the per-site cost of
// tracing when it is off (a nil check), justifying leave-on defaults.
func BenchmarkDisabled(b *testing.B) {
	var tr *Tracer
	root := tr.Start("r", CatInvoke)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := root.Child("c", CatXfer)
		s.SetAttr("bytes", 1)
		s.Syscall("x").End()
		s.End()
	}
	root.End()
}

// BenchmarkEnabled is the recording counterpart, for the overhead
// comparison quoted in DESIGN.md §8.
func BenchmarkEnabled(b *testing.B) {
	tr := New("bench", Options{TraceID: "b"})
	root := tr.Start("r", CatInvoke)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := root.Child("c", CatXfer)
		s.SetAttr("bytes", 1)
		s.End()
	}
	root.End()
}
