package metrics

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram is the constant-memory latency aggregator behind the
// always-on telemetry plane: a fixed log-spaced bucket layout shared by
// every instance, so merging two histograms is an element-wise add and
// a long-lived watchdog's memory cost per workflow is a few hundred
// words no matter how many invocations it serves; the watchdog's
// all-workflow latency family is the Merge of its per-workflow
// histograms. Observe is one binary search plus a handful of integer
// updates under a mutex, cheap enough for every invocation; exact
// nearest-rank percentiles over a bounded sample set are Summary's job.
//
// Each bucket additionally remembers the most recent trace ID observed
// into it (an exemplar), so a scraped histogram line can point straight
// at a retained trace explaining that latency band. Exemplars carry no
// timestamps — the histogram never reads a clock; callers hand it
// durations they measured on whatever clock they answer to, which keeps
// the type usable inside determinism-critical code.
type Histogram struct {
	mu        sync.Mutex
	counts    [histTotalBuckets]uint64
	exemplars [histTotalBuckets]Exemplar
	count     uint64
	sum       time.Duration
	min       time.Duration
	max       time.Duration
}

// Exemplar links one histogram bucket to a concrete trace: the last
// trace ID whose end-to-end duration landed in the bucket, and that
// duration.
type Exemplar struct {
	TraceID string
	Value   time.Duration
}

// The shared bucket layout: upper bounds growing by sqrt(2) per bucket
// from 50µs, so two buckets per doubling. 56 finite buckets reach
// ~13.6 minutes; anything slower lands in the +Inf overflow bucket.
// One fixed layout (rather than per-histogram bounds) is what makes
// Merge trivial and exposition stable enough to pin in a golden test.
const (
	histBuckets      = 56
	histTotalBuckets = histBuckets + 1 // +1: the +Inf overflow bucket
	histMinBound     = 50 * time.Microsecond
)

// histBounds holds the finite bucket upper bounds, ascending.
var histBounds = func() [histBuckets]time.Duration {
	var b [histBuckets]time.Duration
	for i := range b {
		b[i] = time.Duration(math.Round(float64(histMinBound) * math.Pow(math.Sqrt2, float64(i))))
	}
	return b
}()

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histBucketIndex returns the index of the first bucket whose upper
// bound is >= d, or the overflow index.
func histBucketIndex(d time.Duration) int {
	return sort.Search(histBuckets, func(i int) bool { return d <= histBounds[i] })
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveExemplar(d, "") }

// ObserveExemplar records one duration and, when traceID is non-empty,
// installs it as the bucket's exemplar (last writer wins).
func (h *Histogram) ObserveExemplar(d time.Duration, traceID string) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := histBucketIndex(d)
	h.mu.Lock()
	h.counts[i]++
	if traceID != "" {
		h.exemplars[i] = Exemplar{TraceID: traceID, Value: d}
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.mu.Unlock()
}

// Merge folds other into h. Both share the package-wide bucket layout,
// so the fold is element-wise; other's exemplars win where present (it
// is the fresher, per-run table in the aggregation patterns this is
// built for).
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	// Snapshot other first: locking both in a fixed order is overkill
	// for a type merged strictly one-way.
	o := other.Snapshot()
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] += o.Counts[i]
		if o.Exemplars[i].TraceID != "" {
			h.exemplars[i] = o.Exemplars[i]
		}
	}
	if o.Count > 0 {
		if h.count == 0 || o.Min < h.min {
			h.min = o.Min
		}
		if o.Max > h.max {
			h.max = o.Max
		}
	}
	h.count += o.Count
	h.sum += o.Sum
	h.mu.Unlock()
}

// Count reports total observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum reports the total of all observed durations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// HistogramSnapshot is a consistent copy of a histogram's state, the
// form the Prometheus writer and the quantile estimator consume.
type HistogramSnapshot struct {
	Counts    [histTotalBuckets]uint64
	Exemplars [histTotalBuckets]Exemplar
	Count     uint64
	Sum       time.Duration
	Min       time.Duration
	Max       time.Duration
}

// Snapshot copies the histogram state under one lock acquisition.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	h.mu.Lock()
	s.Counts = h.counts
	s.Exemplars = h.exemplars
	s.Count = h.count
	s.Sum = h.sum
	s.Min = h.min
	s.Max = h.max
	h.mu.Unlock()
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the target rank, clamped to
// the observed min/max so small-count estimates stay sane. Returns 0
// on an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// Quantile is the snapshot-side estimator backing Histogram.Quantile.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		// Target rank lands in bucket i: interpolate between its bounds.
		lo := time.Duration(0)
		if i > 0 {
			lo = histBounds[i-1]
		}
		hi := s.Max
		if i < histBuckets && histBounds[i] < hi {
			hi = histBounds[i]
		}
		if lo < s.Min {
			lo = s.Min
		}
		if hi < lo {
			hi = lo
		}
		frac := float64(rank-cum) / float64(c)
		est := lo + time.Duration(frac*float64(hi-lo))
		if est > s.Max {
			est = s.Max
		}
		return est
	}
	return s.Max
}

// Bucket is one (upper bound, cumulative count, exemplar) triple of the
// exposition view. UpperSeconds is +Inf for the overflow bucket.
type Bucket struct {
	UpperSeconds float64
	Cumulative   uint64
	Exemplar     Exemplar
}

// CumulativeBuckets renders the snapshot the way Prometheus histogram
// exposition wants it: cumulative counts per upper bound, sparse —
// only buckets that grew the running total are included, plus the
// final +Inf bucket, which always is.
func (s HistogramSnapshot) CumulativeBuckets() []Bucket {
	out := make([]Bucket, 0, 8)
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		upper := math.Inf(1)
		if i < histBuckets {
			upper = histBounds[i].Seconds()
		}
		if c > 0 || i == histBuckets {
			out = append(out, Bucket{UpperSeconds: upper, Cumulative: cum, Exemplar: s.Exemplars[i]})
		}
	}
	return out
}
