package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050*time.Millisecond {
		t.Fatalf("sum = %v", h.Sum())
	}
	p50 := h.Quantile(0.5)
	if p50 < 30*time.Millisecond || p50 > 80*time.Millisecond {
		t.Fatalf("p50 = %v, want ~50ms within bucket resolution", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 80*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want ~99ms clamped to max", p99)
	}
	if q := h.Quantile(1); q != 100*time.Millisecond {
		t.Fatalf("q1 = %v, want observed max", q)
	}
	if q := h.Quantile(0); q != time.Millisecond {
		t.Fatalf("q0 = %v, want observed min", q)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 500; i++ {
		h.Observe(time.Duration(i%97) * 731 * time.Microsecond)
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone: q=%.2f → %v after %v", q, cur, prev)
		}
		prev = cur
	}
}

func TestHistogramOverflowAndNegative(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second) // clamps to zero
	h.Observe(24 * time.Hour)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	// The overflow bucket reports the observed max, not +Inf.
	if q := h.Quantile(0.99); q != 24*time.Hour {
		t.Fatalf("overflow quantile = %v", q)
	}
	bs := h.Snapshot().CumulativeBuckets()
	last := bs[len(bs)-1]
	if !math.IsInf(last.UpperSeconds, 1) || last.Cumulative != 2 {
		t.Fatalf("+Inf bucket = %+v", last)
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram()
	h.ObserveExemplar(10*time.Millisecond, "trace-a")
	h.ObserveExemplar(10*time.Millisecond, "trace-b") // same bucket: last writer wins
	h.Observe(400 * time.Millisecond)                 // no exemplar
	var seen []string
	for _, b := range h.Snapshot().CumulativeBuckets() {
		if b.Exemplar.TraceID != "" {
			seen = append(seen, b.Exemplar.TraceID)
		}
	}
	if len(seen) != 1 || seen[0] != "trace-b" {
		t.Fatalf("exemplars = %v, want [trace-b]", seen)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 10; i++ {
		a.Observe(time.Millisecond)
		b.ObserveExemplar(time.Second, fmt.Sprintf("t%d", i))
	}
	a.Merge(b)
	if a.Count() != 20 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Sum() != 10*time.Millisecond+10*time.Second {
		t.Fatalf("merged sum = %v", a.Sum())
	}
	// b's exemplar must survive into a.
	found := false
	for _, bk := range a.Snapshot().CumulativeBuckets() {
		if bk.Exemplar.TraceID == "t9" {
			found = true
		}
	}
	if !found {
		t.Fatal("merge dropped the other histogram's exemplar")
	}
	// Merging nil or self-nil is a no-op.
	a.Merge(nil)
	var nilH *Histogram
	nilH.Merge(b)
	nilH.Observe(time.Second)
	if nilH.Count() != 0 {
		t.Fatal("nil histogram mutated")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	other := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.ObserveExemplar(time.Duration(g*i)*time.Microsecond, "tid")
				if i%50 == 0 {
					h.Merge(other)
					_ = h.Snapshot()
					_ = h.Quantile(0.99)
				}
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8*200 {
		t.Fatalf("concurrent count = %d", h.Count())
	}
}

// TestHistogramExpositionGolden pins the exact text format of both
// dialects: sparse cumulative buckets, the mandatory +Inf bucket, _sum
// and _count. Exemplar suffixes appear only in OpenMetrics — they are
// illegal in the 0.0.4 text format, whose parser reads the trailing
// `# {...}` as a malformed timestamp and fails the whole scrape — and
// the OpenMetrics exposition ends with its mandatory # EOF.
func TestHistogramExpositionGolden(t *testing.T) {
	h := NewHistogram()
	h.ObserveExemplar(40*time.Microsecond, "abc") // below first bound → bucket 0
	h.Observe(40 * time.Microsecond)
	h.Observe(24 * time.Hour) // overflow
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Histogram("as_test_seconds", "help text.", h, "workflow", "wf")
	pw.Finish()
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP as_test_seconds help text.
# TYPE as_test_seconds histogram
as_test_seconds_bucket{workflow="wf",le="5e-05"} 2
as_test_seconds_bucket{workflow="wf",le="+Inf"} 3
as_test_seconds_sum{workflow="wf"} 86400.00008
as_test_seconds_count{workflow="wf"} 3
`
	if sb.String() != want {
		t.Fatalf("0.0.4 exposition drifted:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}

	var om strings.Builder
	pw = NewOpenMetricsWriter(&om)
	pw.Histogram("as_test_seconds", "help text.", h, "workflow", "wf")
	pw.Finish()
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	wantOM := `# HELP as_test_seconds help text.
# TYPE as_test_seconds histogram
as_test_seconds_bucket{workflow="wf",le="5e-05"} 2 # {trace_id="abc"} 4e-05
as_test_seconds_bucket{workflow="wf",le="+Inf"} 3
as_test_seconds_sum{workflow="wf"} 86400.00008
as_test_seconds_count{workflow="wf"} 3
# EOF
`
	if om.String() != wantOM {
		t.Fatalf("OpenMetrics exposition drifted:\n--- got ---\n%s--- want ---\n%s", om.String(), wantOM)
	}
}

// TestNegotiateWriter checks the Accept-header dialect negotiation:
// only a client that names application/openmetrics-text gets the
// OpenMetrics exposition (and with it, exemplars).
func TestNegotiateWriter(t *testing.T) {
	for accept, wantOM := range map[string]bool{
		"":                         false,
		"text/plain;version=0.0.4": false,
		"application/openmetrics-text;version=1.0.0;escaping=allow-utf-8":             true,
		"application/openmetrics-text; version=1.0.0, text/plain;version=0.0.4;q=0.5": true,
		"text/plain, application/openmetrics-text":                                    true,
	} {
		var sb strings.Builder
		pw, ctype := NegotiateWriter(&sb, accept)
		pw.Finish()
		gotOM := ctype == ContentTypeOpenMetrics
		if gotOM != wantOM {
			t.Fatalf("Accept %q negotiated %q, want OpenMetrics=%v", accept, ctype, wantOM)
		}
		if wantOM && sb.String() != "# EOF\n" {
			t.Fatalf("OpenMetrics Finish wrote %q", sb.String())
		}
		if !wantOM && sb.String() != "" {
			t.Fatalf("0.0.4 Finish wrote %q", sb.String())
		}
	}
}

func TestHistogramExpositionParsesBack(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 200; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Histogram("as_rt_seconds", "round trip.", h)
	samples, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	buckets := BucketsOf(samples, "as_rt_seconds", nil)
	if len(buckets) == 0 {
		t.Fatal("no buckets parsed back")
	}
	// The consumer-side quantile must land near the producer-side one
	// (same buckets, the consumer lacks min/max clamping).
	prod := h.Quantile(0.5).Seconds()
	cons := BucketQuantile(0.5, buckets)
	if cons < prod/2 || cons > prod*2 {
		t.Fatalf("consumer p50 %.4fs vs producer %.4fs", cons, prod)
	}
	count, ok := float64(0), false
	for _, s := range samples {
		if s.Name == "as_rt_seconds_count" {
			count, ok = s.Value, true
		}
	}
	if !ok || count != 200 {
		t.Fatalf("parsed count = %v ok=%v", count, ok)
	}
}
