package metrics

import (
	"bytes"
	"maps"
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzPromParse feeds ParseProm what asctl top could read from a node's
// /metrics. Hostile bytes give samples or an error, never a panic, and
// BucketsOf and BucketQuantile run over whatever parses. Then a sample
// written by PromWriter.Value, and a histogram written by
// PromWriter.Histogram with exemplars, must parse back to the same names,
// labels and values. Names are drawn from the exposition charset, label
// values are arbitrary strings. The seeds are in
// testdata/fuzz/FuzzPromParse.
func FuzzPromParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, name, label string, value float64, obs int64) {
		if samples, err := ParseProm(bytes.NewReader(raw)); err == nil {
			// BucketsOf scans every sample, so a handful of families keeps
			// one exec linear in the input.
			families := map[string]bool{}
			for _, s := range samples {
				if fam, ok := strings.CutSuffix(s.Name, "_bucket"); ok && len(families) < 8 {
					families[fam] = true
				}
			}
			for fam := range families {
				BucketQuantile(0.99, BucketsOf(samples, fam, nil))
			}
		}

		name = promName(name)
		h := NewHistogram()
		for _, d := range []int64{obs, obs / 7, obs % int64(time.Second)} {
			h.ObserveExemplar(time.Duration(d), label)
		}
		var buf bytes.Buffer
		w := NewOpenMetricsWriter(&buf)
		w.Value(name, value, "workflow", label)
		w.Histogram(name+"_seconds", "fuzzed latency", h, "workflow", label)
		samples, err := ParseProm(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("own exposition does not parse: %v\n%s", err, buf.Bytes())
		}
		one := map[string]string{"workflow": label}
		if s := samples[0]; s.Name != name || !maps.Equal(s.Labels, one) || !sameFloat(s.Value, value) {
			t.Fatalf("Value(%q, %v, workflow=%q) parsed back as %+v", name, value, label, s)
		}

		snap := h.Snapshot()
		want := snap.CumulativeBuckets()
		got := BucketsOf(samples, name+"_seconds", one)
		if len(got) != len(want) {
			t.Fatalf("%d buckets parsed back, %d written", len(got), len(want))
		}
		for i, b := range want {
			if got[i].LE != b.UpperSeconds || got[i].Count != float64(b.Cumulative) {
				t.Fatalf("bucket %d: wrote le=%v count=%d, parsed %+v", i, b.UpperSeconds, b.Cumulative, got[i])
			}
		}
		BucketQuantile(0.5, got)
		for _, tail := range []struct {
			suffix string
			want   float64
		}{{"_sum", snap.Sum.Seconds()}, {"_count", float64(snap.Count)}} {
			found := false
			for _, s := range samples {
				if s.Name == name+"_seconds"+tail.suffix {
					found = true
					if !maps.Equal(s.Labels, one) || !sameFloat(s.Value, tail.want) {
						t.Fatalf("%s: wrote %v workflow=%q, parsed %+v", tail.suffix, tail.want, label, s)
					}
				}
			}
			if !found {
				t.Fatalf("no %s sample parsed back:\n%s", tail.suffix, buf.Bytes())
			}
		}
	})
}

// promName maps s into the exposition's metric-name charset,
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(s string) string {
	var b strings.Builder
	for _, c := range []byte(s) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9' && b.Len() > 0:
			b.WriteByte(c)
		}
	}
	if b.Len() == 0 {
		return "m"
	}
	return b.String()
}

func sameFloat(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
