package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Exposition content types a /metrics handler can serve.
const (
	// ContentTypeProm is the Prometheus 0.0.4 text format — the default
	// every scraper accepts. Exemplars are not legal in it: a trailing
	// `# {...}` reads as a malformed timestamp and fails the scrape.
	ContentTypeProm = "text/plain; version=0.0.4; charset=utf-8"
	// ContentTypeOpenMetrics is the OpenMetrics text format, negotiated
	// via the Accept header. It is the only exposition in which exemplar
	// suffixes are legal, and it must end with a `# EOF` marker
	// (Finish emits it).
	ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// PromWriter renders a metrics text exposition. It is deliberately
// tiny — the repo vendors no client library — and covers exactly what
// the watchdog and gateway /metrics endpoints expose: counters, gauges,
// pre-computed summaries and histograms.
//
// Two dialects share the writer: the default Prometheus 0.0.4 text
// format (NewPromWriter), in which exemplar suffixes are omitted
// because the 0.0.4 parser rejects them, and OpenMetrics
// (NewOpenMetricsWriter, usually via NegotiateWriter), which carries
// exemplars on histogram buckets and is terminated by Finish's
// `# EOF`.
//
// Usage:
//
//	pw := NewPromWriter(w)
//	pw.Header("alloystack_invocations_total", "counter", "completed invocations")
//	pw.Value("alloystack_invocations_total", 42)
//	pw.Summary("alloystack_invocation_latency_seconds", rec.Summarize())
//	pw.Finish()
//	err := pw.Err()
type PromWriter struct {
	w   io.Writer
	err error
	om  bool // OpenMetrics dialect: exemplars legal, Finish writes # EOF
}

// NewPromWriter wraps w, emitting the Prometheus 0.0.4 text format.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// NewOpenMetricsWriter wraps w, emitting the OpenMetrics text format:
// histogram buckets carry their exemplar suffixes and the exposition
// must be closed with Finish so the mandatory `# EOF` marker lands.
func NewOpenMetricsWriter(w io.Writer) *PromWriter { return &PromWriter{w: w, om: true} }

// AcceptsOpenMetrics reports whether an HTTP Accept header value asks
// for the OpenMetrics exposition.
func AcceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(mediaType) == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

// NegotiateWriter picks the exposition dialect for a scrape from its
// Accept header: OpenMetrics when the client asks for it, the 0.0.4
// text format otherwise. Returns the writer and the Content-Type the
// handler must set. The caller must call Finish after the last family.
func NegotiateWriter(w io.Writer, accept string) (*PromWriter, string) {
	if AcceptsOpenMetrics(accept) {
		return NewOpenMetricsWriter(w), ContentTypeOpenMetrics
	}
	return NewPromWriter(w), ContentTypeProm
}

// Finish terminates the exposition. OpenMetrics requires a trailing
// `# EOF` line; the 0.0.4 text format has no terminator, so this is a
// no-op there. Call once, after the last family.
func (p *PromWriter) Finish() {
	if p.om {
		p.printf("# EOF\n")
	}
}

// Err reports the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Header emits the # HELP / # TYPE preamble for a metric family.
func (p *PromWriter) Header(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Value emits one sample. labels are alternating key, value pairs.
func (p *PromWriter) Value(name string, value float64, labels ...string) {
	p.printf("%s%s %g\n", name, renderLabels(labels), value)
}

// Histogram emits a histogram family in Prometheus exposition:
// cumulative _bucket{le="..."} series (sparse — empty buckets are
// omitted; cumulative counts make that lossless), the mandatory +Inf
// bucket, then _sum and _count. In the OpenMetrics dialect only,
// buckets carrying an exemplar get the suffix
// `# {trace_id="..."} <seconds>` so a scrape can point at the retained
// trace explaining that latency band; the 0.0.4 format drops the
// suffix because its parser would reject the line.
func (p *PromWriter) Histogram(name, help string, h *Histogram, labels ...string) {
	p.HistogramSnapshot(name, help, h.Snapshot(), labels...)
}

// HistogramSnapshot renders an already-snapshotted histogram; Header is
// emitted once per call, so per-label-set families should snapshot
// first and group under one WriteHistogramFamily-style caller.
func (p *PromWriter) HistogramSnapshot(name, help string, s HistogramSnapshot, labels ...string) {
	p.Header(name, "histogram", help)
	p.histogramSeries(name, s, labels...)
}

// HistogramFamily emits one header and then the series of every
// (labels, snapshot) pair — the per-workflow exposition shape.
func (p *PromWriter) HistogramFamily(name, help string, series []LabeledHistogram) {
	p.Header(name, "histogram", help)
	for _, ls := range series {
		p.histogramSeries(name, ls.Snapshot, ls.Labels...)
	}
}

// LabeledHistogram pairs one label set with its snapshot for
// HistogramFamily.
type LabeledHistogram struct {
	Labels   []string
	Snapshot HistogramSnapshot
}

func (p *PromWriter) histogramSeries(name string, s HistogramSnapshot, labels ...string) {
	for _, b := range s.CumulativeBuckets() {
		le := "+Inf"
		if !math.IsInf(b.UpperSeconds, 1) {
			le = strconv.FormatFloat(b.UpperSeconds, 'g', -1, 64)
		}
		bl := append(append([]string{}, labels...), "le", le)
		if p.om && b.Exemplar.TraceID != "" {
			p.printf("%s_bucket%s %d # {trace_id=%q} %g\n",
				name, renderLabels(bl), b.Cumulative,
				b.Exemplar.TraceID, b.Exemplar.Value.Seconds())
			continue
		}
		p.printf("%s_bucket%s %d\n", name, renderLabels(bl), b.Cumulative)
	}
	p.Value(name+"_sum", s.Sum.Seconds(), labels...)
	p.printf("%s_count%s %d\n", name, renderLabels(labels), s.Count)
}

// BuildInfo emits the conventional build-identity gauge: constant 1,
// with the binary's provenance in the labels.
func (p *PromWriter) BuildInfo(name string, bi BuildInfo) {
	p.Header(name, "gauge", "Build identity of this binary (constant 1).")
	p.Value(name, 1,
		"go_version", bi.GoVersion,
		"goos", bi.GOOS,
		"goarch", bi.GOARCH,
		"git_sha", bi.GitSHA)
}

// Transport emits the per-kind data-plane counters under a common
// prefix: <prefix>_bytes_total, _copies_total, _ops_total,
// _slots_reused_total, each labelled by kind.
func (p *PromWriter) Transport(prefix string, t *TransportStats) {
	kinds := t.Kinds()
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	p.Header(prefix+"_bytes_total", "counter", "payload bytes moved per transport kind")
	for _, n := range names {
		p.Value(prefix+"_bytes_total", float64(kinds[n].Bytes), "kind", n)
	}
	p.Header(prefix+"_copies_total", "counter", "payload copies made per transport kind")
	for _, n := range names {
		p.Value(prefix+"_copies_total", float64(kinds[n].Copies), "kind", n)
	}
	p.Header(prefix+"_ops_total", "counter", "transfer operations per transport kind")
	for _, n := range names {
		p.Value(prefix+"_ops_total", float64(kinds[n].Ops), "kind", n)
	}
	p.Header(prefix+"_slots_reused_total", "counter", "pooled buffers recycled per transport kind")
	for _, n := range names {
		p.Value(prefix+"_slots_reused_total", float64(kinds[n].SlotsReused), "kind", n)
	}
}

// renderLabels formats alternating key/value pairs as {k="v",...}.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	out := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%s=%q", labels[i], labels[i+1])
	}
	return out + "}"
}
