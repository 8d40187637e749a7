package trace

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/flight.golden from the current output")

// completeAttrs records a finished child of parent the way Complete
// does — fixed start and duration — but with attributes, which Complete
// cannot carry: the child is built with Child and SetAttr and published
// with its clock pinned instead of read at End.
func completeAttrs(parent *Span, name, cat string, start time.Time, d time.Duration, attrs ...any) {
	s := parent.Child(name, cat)
	for i := 0; i+1 < len(attrs); i += 2 {
		s.SetAttr(attrs[i].(string), attrs[i+1])
	}
	s.data.Start, s.data.Dur = start, d
	s.done.Store(true)
	s.tr.publish(s.data)
}

// TestFlightDumpGolden pins the whole flight-recorder text: the reason
// line, the events with the spans they interrupted, the eviction line,
// and the last spans in start order with their attributes. Every start,
// duration and attribute is fixed, so the output is byte-stable; run
// with -update to rewrite the golden after a deliberate format change.
func TestFlightDumpGolden(t *testing.T) {
	tr := New("node", Options{TraceID: "flight"})
	base := time.Date(2025, 3, 30, 12, 0, 0, 0, time.UTC)
	cats := []string{CatPhase, CatXfer, CatSyscall, CatFunc, CatJournal}
	// The root, stage and instance spans end after the dump, so only
	// their events and the completed children appear in it.
	root := tr.Start("invoke:golden", CatInvoke)
	defer root.End()
	stage := root.Child("stage-0", CatStage)
	defer stage.End()
	const n = 300
	for i := 0; i < n; i++ {
		// Starts are a permutation of publication order, with a tie every
		// 40 spans, so the dump's stable sort by start is exercised.
		slot := (i * 37) % n
		if i%40 == 1 {
			slot = ((i - 1) * 37) % n
		}
		start := base.Add(time.Duration(slot) * 13 * time.Microsecond)
		dur := time.Duration((i*7919)%250_000) * time.Nanosecond
		name := fmt.Sprintf("f[%d].op%d", i%7, i)
		if i%10 == 0 {
			completeAttrs(stage, name, cats[i%len(cats)], start, dur,
				"bytes", i*64, "kind", "slot", "attempt", i%3)
			continue
		}
		stage.Complete(name, cats[i%len(cats)], start, dur)
		if i == 121 {
			stage.Event("injected panic f[1] attempt 0")
		}
	}
	inst := stage.Child("f[3]", CatFunc)
	defer inst.End()
	inst.Event("injected delay f[3] 5ms")

	var buf bytes.Buffer
	tr.FlightDump(&buf, `invocation "golden" failed: boom`)
	path := filepath.Join("testdata", "flight.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("flight dump differs from %s:\n%s", path, buf.String())
	}
}
