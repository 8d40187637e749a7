package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeBasics(t *testing.T) {
	var samples []time.Duration
	for _, ms := range []int{5, 1, 3, 2, 4} {
		samples = append(samples, time.Duration(ms)*time.Millisecond)
	}
	s := Summarize(samples)
	if s.Count != 5 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Min != time.Millisecond || s.Max != 5*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.Mean != 3*time.Millisecond {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.P50 != 3*time.Millisecond {
		t.Fatalf("P50 = %v", s.P50)
	}
	if s.P99 != 5*time.Millisecond {
		t.Fatalf("P99 = %v", s.P99)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Max != 0 || s.P99 != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestPercentileSingleSample(t *testing.T) {
	s := Summarize([]time.Duration{7 * time.Millisecond})
	if s.P50 != 7*time.Millisecond || s.P99 != 7*time.Millisecond {
		t.Fatalf("single-sample percentiles = %+v", s)
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v) * time.Microsecond
		}
		s := Summarize(samples)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStageClockConcurrent exercises parallel stage instances charging
// one shared clock — the shared-writer shape PR 1 fixed in libos stdio.
// Run under -race (scripts/ci.sh includes this package).
func TestStageClockConcurrent(t *testing.T) {
	c := NewStageClock()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add(StageCompute, time.Microsecond)
				c.Add(StageTransfer, 2*time.Microsecond)
				_ = c.Total(StageCompute)
				_ = c.Breakdown()
			}
		}()
	}
	wg.Wait()
	if got := c.Total(StageCompute); got != 1600*time.Microsecond {
		t.Fatalf("compute total = %v, want 1.6ms", got)
	}
	if got := c.Total(StageTransfer); got != 3200*time.Microsecond {
		t.Fatalf("transfer total = %v, want 3.2ms", got)
	}
}

func TestTransportStats(t *testing.T) {
	s := NewTransportStats()
	s.CountOp("kv", 1024, 1)
	s.CountOp("kv", 1024, 1)
	s.CountOp("refpass", 4096, 0)
	s.CountReuse("refpass")
	kv := s.Kind("kv")
	if kv.Bytes != 2048 || kv.Copies != 2 || kv.Ops != 2 {
		t.Fatalf("kv counters = %+v", kv)
	}
	rp := s.Kind("refpass")
	if rp.Copies != 0 || rp.SlotsReused != 1 {
		t.Fatalf("refpass counters = %+v", rp)
	}
	tot := s.Totals()
	if tot.Bytes != 6144 || tot.Copies != 2 || tot.Ops != 3 {
		t.Fatalf("totals = %+v", tot)
	}
	if got := s.CopiesPerByte("refpass"); got != 0 {
		t.Fatalf("refpass copies/byte = %v, want 0", got)
	}
}

// TestTransportStatsNilAndConcurrent: a nil stats sink is a no-op (the
// transports pass one through unconditionally), and a shared sink is
// race-free across parallel stage instances.
func TestTransportStatsNilAndConcurrent(t *testing.T) {
	var nilStats *TransportStats
	nilStats.CountOp("kv", 1, 1) // must not panic
	nilStats.CountReuse("kv")
	if k := nilStats.Kind("kv"); k.Ops != 0 {
		t.Fatalf("nil stats returned %+v", k)
	}

	s := NewTransportStats()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.CountOp("net", 10, 1)
				s.CountReuse("net")
				_ = s.Kinds()
				_ = s.Totals()
			}
		}()
	}
	wg.Wait()
	k := s.Kind("net")
	if k.Ops != 1600 || k.Bytes != 16000 || k.SlotsReused != 1600 {
		t.Fatalf("concurrent counters = %+v", k)
	}
}

func TestStageClock(t *testing.T) {
	c := NewStageClock()
	c.Add(StageReadInput, 10*time.Millisecond)
	c.Add(StageCompute, 20*time.Millisecond)
	c.Add(StageCompute, 5*time.Millisecond)
	if got := c.Total(StageCompute); got != 25*time.Millisecond {
		t.Fatalf("compute total = %v", got)
	}
	if got := c.Total(StageTransfer); got != 0 {
		t.Fatalf("transfer total = %v", got)
	}
	b := c.Breakdown()
	if b["read-input"] != 10*time.Millisecond || b["compute"] != 25*time.Millisecond {
		t.Fatalf("breakdown = %v", b)
	}
}

func TestStageClockTime(t *testing.T) {
	c := NewStageClock()
	err := c.Time(StageTransfer, func() error {
		time.Sleep(3 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total(StageTransfer) < 3*time.Millisecond {
		t.Fatalf("transfer = %v", c.Total(StageTransfer))
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KiB",
		3 << 20: "3.0MiB",
		5 << 30: "5.0GiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Fatalf("FormatBytes(%d) = %s, want %s", n, got, want)
		}
	}
}
