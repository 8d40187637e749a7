package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestPromWriterRendersFamilies(t *testing.T) {
	stats := NewTransportStats()
	stats.CountOp("refpass", 4096, 0)
	stats.CountOp("kv", 1024, 2)
	stats.CountReuse("refpass")

	var b strings.Builder
	pw := NewPromWriter(&b)
	pw.Header("as_invocations_total", "counter", "completed invocations")
	pw.Value("as_invocations_total", 3)
	pw.Transport("as_transport", stats)
	pw.Value("as_backend_up", 1, "backend", "127.0.0.1:9")
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}

	out := b.String()
	for _, want := range []string{
		"# TYPE as_invocations_total counter",
		"as_invocations_total 3",
		`as_transport_bytes_total{kind="refpass"} 4096`,
		`as_transport_copies_total{kind="kv"} 2`,
		`as_transport_slots_reused_total{kind="refpass"} 1`,
		`as_backend_up{backend="127.0.0.1:9"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTransportStatsStringAndMerge(t *testing.T) {
	a := NewTransportStats()
	a.CountOp("refpass", 100, 0)
	b := NewTransportStats()
	b.CountOp("refpass", 50, 0)
	b.CountOp("net", 10, 2)
	a.Merge(b)
	tot := a.Totals()
	if tot.Bytes != 160 || tot.Copies != 2 || tot.Ops != 3 {
		t.Fatalf("merged totals = %+v", tot)
	}
	s := a.String()
	if !strings.Contains(s, "net:") || !strings.Contains(s, "refpass:") {
		t.Fatalf("String() = %q", s)
	}
	// Kind ordering is stable (sorted) for report diffing.
	if strings.Index(s, "net:") > strings.Index(s, "refpass:") {
		t.Fatalf("kinds not sorted: %q", s)
	}
	var nilStats *TransportStats
	if nilStats.String() != "no transfers" {
		t.Fatalf("nil String() = %q", nilStats.String())
	}
	nilStats.Merge(a)
	a.Merge(nil)
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []time.Duration{5, 1, 3}
	s := Summarize(in)
	if s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Fatalf("input mutated: %v", in)
	}
}
