package metrics

import (
	"sync"
	"time"
)

// SLO tracks a per-workflow service-level objective — "Target fraction
// of requests complete within Objective" — and answers the operational
// question behind it with multi-window burn rates: how fast is the
// error budget being spent right now (short window) and has that pace
// persisted (long window)? Requiring both windows to burn hot is the
// standard way to page on real regressions without flapping on a single
// slow request; the telemetry plane's anomaly capture and the degraded
// /healthz state key off Breached().
//
// The clock is injected at construction: production callers pass
// time.Now, tests (and anything determinism-critical) pass their own.
// No method reads the wall clock directly, which asvet's wallclock
// analyzer enforces for this file.
type SLO struct {
	cfg   SLOConfig
	clock func() time.Time

	mu      sync.Mutex
	slotDur time.Duration
	slots   []sloSlot // ring over LongWindow
	good    uint64    // lifetime totals
	bad     uint64
}

// SLOConfig parameterises an SLO.
type SLOConfig struct {
	// Objective is the per-request latency objective; a request slower
	// than it (or failed) burns error budget.
	Objective time.Duration
	// Target is the fraction of requests that must meet the objective
	// (default 0.99). The error budget is 1 - Target.
	Target float64
	// ShortWindow and LongWindow are the burn-rate windows (defaults
	// 1m and 10m). Both must burn past BurnThreshold for Breached.
	ShortWindow time.Duration //asvet:allow unreachable -- test seam: the burn-rate tests shorten the window (asvisor exposes Objective and Target only)
	LongWindow  time.Duration
	// BurnThreshold is the burn rate that counts as a breach (default
	// 2: budget being spent at twice the sustainable pace).
	BurnThreshold float64 //asvet:allow unreachable -- test seam, see ShortWindow
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Target <= 0 || c.Target >= 1 {
		c.Target = 0.99
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = time.Minute
	}
	if c.LongWindow <= c.ShortWindow {
		c.LongWindow = 10 * c.ShortWindow
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = 2
	}
	return c
}

// sloSlots is the ring granularity: LongWindow is divided into this
// many fixed slots, giving the short window at least a few slots of
// resolution at the default 1m/10m ratio.
const sloSlots = 60

type sloSlot struct {
	start     time.Time
	good, bad uint64
}

// NewSLO builds an SLO on the given clock (nil clock panics: the whole
// point of the type is that time is explicit).
func NewSLO(cfg SLOConfig, clock func() time.Time) *SLO {
	if clock == nil {
		panic("metrics: NewSLO requires an injected clock")
	}
	cfg = cfg.withDefaults()
	return &SLO{
		cfg:     cfg,
		clock:   clock,
		slotDur: cfg.LongWindow / sloSlots,
		slots:   make([]sloSlot, sloSlots),
	}
}

// Config returns the (defaulted) configuration.
func (s *SLO) Config() SLOConfig { return s.cfg }

// slot returns the ring slot for now, resetting it if it belongs to a
// previous lap. Caller holds s.mu.
func (s *SLO) slot(now time.Time) *sloSlot {
	start := now.Truncate(s.slotDur)
	i := int(start.UnixNano()/int64(s.slotDur)) % sloSlots
	if i < 0 {
		i += sloSlots
	}
	sl := &s.slots[i]
	if !sl.start.Equal(start) {
		*sl = sloSlot{start: start}
	}
	return sl
}

// Observe records one request outcome: failed, or slower than the
// objective, burns budget.
func (s *SLO) Observe(d time.Duration, failed bool) {
	if s == nil {
		return
	}
	now := s.clock()
	s.mu.Lock()
	sl := s.slot(now)
	if failed || d > s.cfg.Objective {
		sl.bad++
		s.bad++
	} else {
		sl.good++
		s.good++
	}
	s.mu.Unlock()
}

// window sums the outcomes of slots younger than win. Caller holds s.mu.
func (s *SLO) window(now time.Time, win time.Duration) (good, bad uint64) {
	cutoff := now.Add(-win)
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.start.IsZero() || !sl.start.After(cutoff) || sl.start.After(now) {
			continue
		}
		good += sl.good
		bad += sl.bad
	}
	return good, bad
}

// burnRate converts a window's bad fraction into a burn rate: 1.0 means
// the error budget is being spent exactly at the sustainable pace, N
// means N times too fast. An empty window burns nothing.
func (s *SLO) burnRate(good, bad uint64) float64 {
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - s.cfg.Target
	return (float64(bad) / float64(total)) / budget
}

// SLOStatus is one SLO's point-in-time evaluation.
type SLOStatus struct {
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	Breached  bool    `json:"breached"`
	Good      uint64  `json:"good"`
	Bad       uint64  `json:"bad"`
}

// Status evaluates both burn windows at the injected clock's now.
func (s *SLO) Status() SLOStatus {
	if s == nil {
		return SLOStatus{}
	}
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	sg, sb := s.window(now, s.cfg.ShortWindow)
	lg, lb := s.window(now, s.cfg.LongWindow)
	st := SLOStatus{
		ShortBurn: s.burnRate(sg, sb),
		LongBurn:  s.burnRate(lg, lb),
		Good:      s.good,
		Bad:       s.bad,
	}
	st.Breached = st.ShortBurn >= s.cfg.BurnThreshold && st.LongBurn >= s.cfg.BurnThreshold
	return st
}
