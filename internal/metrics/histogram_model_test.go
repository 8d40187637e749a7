package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// modelSamples draws n seeded durations: log-uniform from 1ns to 20min
// (which reaches past the last finite bucket into overflow), mixed with
// values exactly on bucket bounds and explicit overflow values.
func modelSamples(rng *rand.Rand, n int) []time.Duration {
	const hiNs = float64(20 * time.Minute)
	out := make([]time.Duration, n)
	for i := range out {
		switch r := rng.Intn(10); {
		case r < 7:
			out[i] = time.Duration(math.Exp(rng.Float64() * math.Log(hiNs)))
		case r < 9:
			out[i] = histBounds[rng.Intn(histBuckets)]
		default:
			out[i] = histBounds[histBuckets-1] + time.Duration(1+rng.Int63n(int64(time.Hour)))
		}
	}
	return out
}

// TestHistogramModel checks Histogram against exact arithmetic over
// seeded samples: Merge of up to four disjoint parts equals one
// histogram fed the union, and Quantile(q) lies inside the bucket that
// holds the exact nearest-rank sample, clamped to [Min, Max].
func TestHistogramModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		samples := modelSamples(rng, 1+rng.Intn(400))

		whole := NewHistogram()
		parts := make([]*Histogram, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = NewHistogram()
		}
		for _, d := range samples {
			whole.Observe(d)
			parts[rng.Intn(len(parts))].Observe(d)
		}
		merged := NewHistogram()
		for _, p := range parts {
			merged.Merge(p)
		}
		w, m := whole.Snapshot(), merged.Snapshot()
		if w.Counts != m.Counts || w.Count != m.Count || w.Sum != m.Sum || w.Min != m.Min || w.Max != m.Max {
			t.Fatalf("seed %d: merge of %d parts differs from the union:\nwhole  %+v\nmerged %+v",
				seed, len(parts), w, m)
		}

		sorted := append([]time.Duration(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if w.Min != sorted[0] || w.Max != sorted[len(sorted)-1] {
			t.Fatalf("seed %d: min/max = %v/%v, want %v/%v", seed, w.Min, w.Max, sorted[0], sorted[len(sorted)-1])
		}
		for qi := 1; qi <= 100; qi++ {
			q := float64(qi) / 100
			rank := int(math.Ceil(q * float64(len(sorted))))
			exact := sorted[rank-1]
			i := histBucketIndex(exact)
			lo, hi := time.Duration(0), w.Max
			if i > 0 {
				lo = histBounds[i-1]
			}
			if i < histBuckets && histBounds[i] < hi {
				hi = histBounds[i]
			}
			lo = max(lo, w.Min)
			if got := w.Quantile(q); got < lo || got > hi {
				t.Fatalf("seed %d n=%d: Quantile(%.2f) = %v outside [%v, %v], the bucket of the exact sample %v",
					seed, len(sorted), q, got, lo, hi, exact)
			}
		}
	}
}
