package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minFloorSamples is the fewest samples a floor may be taken over: the
// nearest-rank p10 of fewer than 100 samples is one of the few very
// smallest values and does not repeat run to run.
const minFloorSamples = 100

var errTooFewSamples = errors.New("e2e: too few samples for a floor")

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, ascending samples: the value at rank ceil(p/100 * n).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns samples in ascending order without touching the
// caller's slice.
func sortedCopy(samples []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), samples...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// floor is the estimator every gated time in this benchmark uses: the
// nearest-rank p10. On a shared 2-vCPU host the median and the mean of
// a closed loop drift by tens of percent between identical runs; the
// p10 on one P is the undisturbed service time of the code and repeats
// within a few percent (README, "Why a floor"). It refuses fewer than
// min samples: minFloorSamples for latencies, 30 for set-up cycles, a
// handful under -smoke.
func floor(samples []time.Duration, min int) (time.Duration, error) {
	if len(samples) < min || len(samples) == 0 {
		return 0, fmt.Errorf("%w: got %d, want %d", errTooFewSamples, len(samples), min)
	}
	return percentile(sortedCopy(samples), 10), nil
}

// clampSub is a ladder subtraction: the self time of an outer layer is
// the floor through it minus the floor through the layer below, and a
// difference of two measurements is never reported below zero.
func clampSub(outer, inner time.Duration) time.Duration {
	if outer < inner {
		return 0
	}
	return outer - inner
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a float slice (mean of the middle pair for even n), as
// Python's statistics.median computes it.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with quartiles computed as Python's
// statistics.quantiles(vals, n=4) does (the exclusive method) — the
// spread the benchmark driver holds each end-to-end metric to.
func quartileSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
