// Package meter is the unreachable fixture: internal/metrics as it stood
// before ResourceMeter was deleted, cut down to one symbol of each kind
// the analyzer tells apart.
package meter

import (
	"fmt"
	"sync"
	"time"
)

// ResourceMeter had no caller outside its own tests: nothing names the
// type outside the package, so every method is reported with it.
type ResourceMeter struct {
	mu      sync.Mutex
	cpuTime time.Duration
	memPeak int64
	memCur  int64
}

func NewResourceMeter() *ResourceMeter { return &ResourceMeter{} } // want "NewResourceMeter is unreachable"

func (m *ResourceMeter) ChargeCPU(d time.Duration) { // want "ResourceMeter.ChargeCPU is unreachable"
	m.mu.Lock()
	m.cpuTime += d
	m.mu.Unlock()
}

func (m *ResourceMeter) GrowMem(n int64) { // want "ResourceMeter.GrowMem is unreachable"
	m.mu.Lock()
	m.memCur += n
	m.memPeak = max(m.memPeak, m.memCur)
	m.mu.Unlock()
}

func (m *ResourceMeter) Snapshot() (time.Duration, int64, int64) { // want "ResourceMeter.Snapshot is unreachable"
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cpuTime, m.memCur, m.memPeak
}

// FormatBytes is referenced by the main fixture: live, and so is the
// unexported helper it calls.
func FormatBytes(n int64) string { return unit(n, "B") }

func unit(n int64, suffix string) string { return fmt.Sprint(n) + suffix }

func deadHelper() int { return 1 } // want "deadHelper is unreachable"

// Clock is named by the main fixture, so its exported method set is its
// API: Reset stays although nothing calls it. Its unexported methods
// are judged on calls alone.
type Clock struct{ total time.Duration }

func (c *Clock) Add(d time.Duration) { c.total += d }

func (c *Clock) Reset() { c.total = 0 }

func (c *Clock) drift() time.Duration { return c.total / 2 } // want "Clock.drift is unreachable"

// Stage is only ever printed: fmt reaches String through fmt.Stringer,
// which the call graph cannot see.
type Stage int

func (s Stage) String() string { return [...]string{"read", "compute"}[s] }

// Compute is handed to fmt by the main fixture.
const Compute Stage = 1

//asvet:allow unreachable -- fixture: a waived test oracle
func checkInvariants() error { return nil }

var registered = map[string]func() int{"boot": fromInit}

// fromInit is only referenced by a package-level initialiser.
func fromInit() int { return 0 }

// RunOptions: visor.RunOptions before the analyzer learnt fields, cut down.
type RunOptions struct {
	Journal  string // a composite-literal key in the main fixture
	Resume   string // assigned there
	Retries  int    // incremented there
	Deadline int    // its address is taken there
	Verdict  string `json:"verdict"` // filled by reflection
	RunID    string // want "RunOptions.RunID is never written"
	Peer     *Clock // want "RunOptions.Peer is never written"
	//asvet:allow unreachable -- fixture: the kill-the-process seam a test installs
	CrashFn func(point string)
	Grace   int // want "RunOptions.Grace is never written" -- a constant default is no writer
}

func (o RunOptions) WithDefaults() RunOptions {
	if o.Grace <= 0 {
		o.Grace = 10
	}
	return o
}
