// Package journal is the durability layer for workflow runs: a
// crash-safe, fsync'd, length-prefixed and checksummed write-ahead log
// of run lifecycle records, written by the visor at stage barriers and
// replayed after a crash so a resumed run re-imports committed
// intermediate data instead of re-executing its producers.
//
// One run maps onto one append-only journal file (<id>.journal) plus a
// spill segment (<id>.spill) for the intermediate payloads that crossed
// a barrier. The record stream is ordinary JSON inside the package's one
// binary frame (frame.go), which the spill segment shares:
//
//	[4-byte LE payload length][4-byte LE CRC32-IEEE of payload][payload]
//
// Replay tolerates a torn tail — a crash mid-append leaves a short or
// checksum-failing final frame, which replay treats as end-of-log; the
// resume path truncates the file back to the last good frame before
// appending again. Fsync follows group-commit discipline: commit-class
// records (admission, stage commits, failure, compensation results, the
// seal) are fsync'd in place, while intra-barrier records (stage-started,
// slot-spilled) defer to the next commit-class fsync — fsync flushes the
// whole file, so a durable stage-commit record implies the spill records
// written before it are durable too.
//
// Record kinds and their meaning for recovery:
//
//	run-admitted     run created; carries the workflow spec (JSON)
//	stage-started    stage N began executing (not yet restartable-from)
//	slot-spilled     one barrier payload persisted (size + CRC32)
//	stage-committed  stage N's outputs are durable; resume skips it
//	run-resumed      a resume re-opened this journal
//	run-failed       a stage failed terminally; saga unwind follows
//	comp-started     compensation with this idempotency key began
//	comp-done        compensation finished ("ok"/"failed"); never re-run
//	run-sealed       terminal verdict; the run can no longer be resumed
//
// Determinism: journal timestamps come from the injected clock only
// (Options.Clock), keeping seeded chaos replays byte-comparable.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alloystack/internal/dag"
)

// Record kinds.
const (
	KindAdmitted    = "run-admitted"
	KindStageStart  = "stage-started"
	KindSlotSpilled = "slot-spilled"
	KindStageCommit = "stage-committed"
	KindResumed     = "run-resumed"
	KindFailed      = "run-failed"
	KindCompStart   = "comp-started"
	KindCompDone    = "comp-done"
	KindSealed      = "run-sealed"
)

// Errors returned by the journal.
var (
	ErrSealed   = errors.New("journal: run is sealed")
	ErrNotFound = errors.New("journal: run not found")
	ErrExists   = errors.New("journal: run already exists")
	ErrChecksum = errors.New("journal: spill payload checksum mismatch")
	ErrNoSpill  = errors.New("journal: spill payload missing")
)

// Record is one journal entry. Fields are populated per kind; zero
// fields are omitted from the wire form.
type Record struct {
	Seq      uint64 `json:"seq"`
	Kind     string `json:"kind"`
	Run      string `json:"run"`
	Workflow string `json:"workflow,omitempty"`
	// Stage is the stage index for stage-* records and the producer
	// stage for slot-spilled records.
	Stage int    `json:"stage"`
	Slot  string `json:"slot,omitempty"`
	Size  int64  `json:"size,omitempty"`
	// Sum is the CRC32-IEEE of a spilled payload, verified on re-import.
	Sum uint32 `json:"sum,omitempty"`
	// Key is the compensation idempotency key (comp-started/comp-done).
	Key string `json:"key,omitempty"`
	// Verdict is the comp-done result ("ok"/"failed") or the run-sealed
	// terminal verdict ("ok"/"compensated"/"comp-failed").
	Verdict string `json:"verdict,omitempty"`
	Detail  string `json:"detail,omitempty"`
	// At is the injected-clock timestamp (UnixNano); never wall-clock
	// inside this package.
	At int64 `json:"at,omitempty"`
	// Spec carries the workflow definition on run-admitted so a resume
	// can rebuild the DAG without the original registration.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// Options configure a Store.
type Options struct {
	// Clock supplies record timestamps; defaults to the wall clock (the
	// single approved injection point).
	Clock func() time.Time
	// NoSync skips the per-append fsync (benchmarks measuring the
	// framing overhead alone; durability tests keep it off).
	NoSync bool //asvet:allow unreachable -- set nowhere today, tests included: ROADMAP 12's durable benchmark is its planned first writer
}

// Store manages the journals under one directory.
type Store struct {
	dir    string
	clock  func() time.Time
	noSync bool

	idSeq atomic.Uint64

	// Counters exported on the watchdog's /metrics.
	appends  atomic.Int64
	bytes    atomic.Int64
	resumes  atomic.Int64
	compOK   atomic.Int64
	compFail atomic.Int64
}

// Open creates (or reuses) the journal directory.
func Open(dir string, o Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if o.Clock == nil {
		o.Clock = time.Now //asvet:allow wallclock -- the approved injection point
	}
	return &Store{dir: dir, clock: o.Clock, noSync: o.NoSync}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats is the store's counter snapshot.
type Stats struct {
	Appends    int64
	Bytes      int64
	Resumes    int64
	CompOK     int64
	CompFailed int64
}

// Stats snapshots the append/resume/compensation counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Appends:    s.appends.Load(),
		Bytes:      s.bytes.Load(),
		Resumes:    s.resumes.Load(),
		CompOK:     s.compOK.Load(),
		CompFailed: s.compFail.Load(),
	}
}

// CountComp charges one compensation result to the store counters (the
// visor calls it as the saga unwinds).
func (s *Store) CountComp(ok bool) {
	if s == nil {
		return
	}
	if ok {
		s.compOK.Add(1)
	} else {
		s.compFail.Add(1)
	}
}

func (s *Store) journalPath(id string) string {
	return filepath.Join(s.dir, id+".journal")
}

// FlightPath returns the flight-recorder dump file for a run — barrier
// and resume dumps append here so pre-crash spans survive the process.
func (s *Store) FlightPath(id string) string {
	return filepath.Join(s.dir, id+".flight.log")
}

// NextID allocates an unused run ID. IDs are sequence-derived, not
// clock-derived, so runs replay identically under seeded chaos.
func (s *Store) NextID(workflow string) string {
	for {
		id := fmt.Sprintf("%s-%06d", sanitize(workflow), s.idSeq.Add(1))
		if _, err := os.Stat(s.journalPath(id)); os.IsNotExist(err) {
			return id
		}
	}
}

// sanitize maps a workflow name onto a filesystem-safe ID prefix.
func sanitize(name string) string {
	if name == "" {
		return "run"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, name)
}

// Begin opens a fresh journal for a run and writes run-admitted with
// the workflow spec. Empty id allocates one via NextID.
func (s *Store) Begin(id string, w *dag.Workflow) (*Run, error) {
	if id == "" {
		id = s.NextID(w.Name)
	}
	path := s.journalPath(id)
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	r := &Run{s: s, id: id, workflow: w.Name, f: f}
	spec, err := json.Marshal(w)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := r.append(Record{Kind: KindAdmitted, Workflow: w.Name, Spec: spec}); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// Load replays a run's journal read-only.
func (s *Store) Load(id string) (*State, error) {
	recs, _, err := replayFile(s.journalPath(id))
	if err != nil {
		return nil, err
	}
	return buildState(id, recs)
}

// Resume re-opens a run for appending: replay, truncate any torn tail,
// append run-resumed. Fails with ErrSealed on a terminally sealed run.
func (s *Store) Resume(id string) (*Run, *State, error) {
	path := s.journalPath(id)
	recs, good, err := replayFile(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := buildState(id, recs)
	if err != nil {
		return nil, nil, err
	}
	if st.Sealed {
		return nil, nil, fmt.Errorf("%w: %s (verdict %q)", ErrSealed, id, st.Verdict)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	r := &Run{s: s, id: id, workflow: st.Workflow, f: f, seq: uint64(len(recs))}
	if err := r.append(Record{Kind: KindResumed, Workflow: st.Workflow,
		Detail: fmt.Sprintf("resume #%d", st.Resumes+1)}); err != nil {
		f.Close()
		return nil, nil, err
	}
	s.resumes.Add(1)
	st.Resumes++
	return r, st, nil
}

// List summarises every journal in the store, sorted by run ID.
func (s *Store) List() ([]Summary, error) {
	if s == nil {
		return nil, nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []Summary
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".journal") {
			continue
		}
		id := strings.TrimSuffix(name, ".journal")
		st, err := s.Load(id)
		if err != nil {
			continue // unreadable journal: skip rather than fail the listing
		}
		info, _ := e.Info()
		var size int64
		if info != nil {
			size = info.Size()
		}
		out = append(out, st.summary(size))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Run is an append handle on one run's journal.
type Run struct {
	s        *Store
	id       string
	workflow string

	mu  sync.Mutex
	f   *os.File
	seq uint64
}

// ID returns the run identifier.
func (r *Run) ID() string { return r.id }

// append frames, writes and fsyncs one record. Commit-class records
// (admission, stage commits, failure, compensation results, the seal)
// go through here: their fsync is the durability point.
func (r *Run) append(rec Record) error {
	return r.appendSync(rec, true)
}

// appendDeferred frames and writes one record without fsync'ing it.
// Intra-barrier records (stage-started, slot-spilled) use this: the
// stage-commit record that follows them is fsync'd, and fsync flushes
// the whole file, so a durable commit implies its spill records are
// durable too (group commit). A crash before the commit may lose them,
// which only means the uncommitted stage re-executes on resume.
func (r *Run) appendDeferred(rec Record) error {
	return r.appendSync(rec, false)
}

func (r *Run) appendSync(rec Record, sync bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return fmt.Errorf("journal: run %s: append after close", r.id)
	}
	rec.Seq = r.seq
	rec.Run = r.id
	rec.At = r.s.clock().UnixNano()
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	n, err := writeFrame(r.f, false, "", payload)
	if err != nil {
		return err
	}
	if sync && !r.s.noSync {
		if err := r.f.Sync(); err != nil {
			return err
		}
	}
	r.seq++
	r.s.appends.Add(1)
	r.s.bytes.Add(n)
	return nil
}

// StageStarted records that stage si began executing. Sync is deferred
// to the stage's commit record: losing a start record only loses a
// progress note.
func (r *Run) StageStarted(si int) error {
	return r.appendDeferred(Record{Kind: KindStageStart, Workflow: r.workflow, Stage: si})
}

// SlotSpilled records one persisted barrier payload (the payload itself
// goes to the run's spill Segment). Sync is deferred to the barrier's
// commit record (group commit).
func (r *Run) SlotSpilled(si int, slot string, size int64, sum uint32) error {
	return r.appendDeferred(Record{Kind: KindSlotSpilled, Workflow: r.workflow,
		Stage: si, Slot: slot, Size: size, Sum: sum})
}

// StageCommitted marks stage si's outputs durable; a resume skips it.
func (r *Run) StageCommitted(si int) error {
	return r.append(Record{Kind: KindStageCommit, Workflow: r.workflow, Stage: si})
}

// Failed records the terminal stage failure that triggers the saga.
func (r *Run) Failed(si int, detail string) error {
	return r.append(Record{Kind: KindFailed, Workflow: r.workflow, Stage: si, Detail: detail})
}

// CompStarted records a compensation beginning under its idempotency key.
func (r *Run) CompStarted(key string) error {
	return r.append(Record{Kind: KindCompStart, Workflow: r.workflow, Key: key})
}

// CompDone records a compensation result; a journaled comp-done is never
// re-run across resumes (exactly-once).
func (r *Run) CompDone(key string, ok bool, detail string) error {
	verdict := "ok"
	if !ok {
		verdict = "failed"
	}
	return r.append(Record{Kind: KindCompDone, Workflow: r.workflow,
		Key: key, Verdict: verdict, Detail: detail})
}

// Seal writes the terminal verdict and closes the journal.
func (r *Run) Seal(verdict string) error {
	if err := r.append(Record{Kind: KindSealed, Workflow: r.workflow, Verdict: verdict}); err != nil {
		return err
	}
	return r.Close()
}

// Close releases the file handle without sealing (the run stays
// resumable).
func (r *Run) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// ---- replay ---------------------------------------------------------------

// replayFile reads every intact record from a journal file.
func replayFile(path string) (recs []Record, good int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, filepath.Base(path))
		}
		return nil, 0, err
	}
	defer f.Close()
	recs, good = replay(f)
	return recs, good, nil
}

// replay decodes records until the first torn, corrupt or undecodable
// frame, which ends the replay cleanly; good is the offset past the
// last record, where Resume truncates.
func replay(r io.Reader) (recs []Record, good int64) {
	fr := &frameReader{r: bufio.NewReader(r), limit: maxRecord}
	for {
		_, payload, ok := fr.next()
		var rec Record
		if !ok || json.Unmarshal(payload, &rec) != nil {
			return recs, good
		}
		recs = append(recs, rec)
		good = fr.off
	}
}

// Spill describes one journaled barrier payload.
type Spill struct {
	Slot  string
	Stage int
	Size  int64
	Sum   uint32
}

// State is the recovery view built by replaying a journal.
type State struct {
	ID       string
	Workflow string
	// Spec is the journaled workflow definition (nil if the admitted
	// record predates spec journaling).
	Spec *dag.Workflow
	// Committed indexes the stage-committed records.
	Committed map[int]bool
	// Spilled lists barrier payloads in append order.
	Spilled []Spill
	// CompDone maps each finished compensation's idempotency key to
	// "ok"/"failed".
	CompDone   map[string]string
	Failed     bool
	FailDetail string
	Sealed     bool
	Verdict    string
	Resumes    int
	Records    int
}

func buildState(id string, recs []Record) (*State, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("%w: %s (empty journal)", ErrNotFound, id)
	}
	st := &State{
		ID:        id,
		Committed: make(map[int]bool),
		CompDone:  make(map[string]string),
		Records:   len(recs),
	}
	for _, rec := range recs {
		switch rec.Kind {
		case KindAdmitted:
			st.Workflow = rec.Workflow
			if len(rec.Spec) > 0 {
				// A spec that fails validation is dropped; the resume
				// falls back to the registered workflow.
				st.Spec, _ = dag.Parse(rec.Spec)
			}
		case KindSlotSpilled:
			st.Spilled = append(st.Spilled, Spill{
				Slot: rec.Slot, Stage: rec.Stage, Size: rec.Size, Sum: rec.Sum})
		case KindStageCommit:
			st.Committed[rec.Stage] = true
		case KindResumed:
			st.Resumes++
		case KindFailed:
			st.Failed = true
			st.FailDetail = rec.Detail
		case KindCompDone:
			st.CompDone[rec.Key] = rec.Verdict
		case KindSealed:
			st.Sealed = true
			st.Verdict = rec.Verdict
		}
	}
	return st, nil
}

// CommittedPrefix returns k such that stages 0..k-1 are all committed —
// the resume point: the first stage a resumed run must execute.
func (st *State) CommittedPrefix() int {
	k := 0
	for st.Committed[k] {
		k++
	}
	return k
}

func (st *State) summary(bytes int64) Summary {
	return Summary{
		ID:        st.ID,
		Workflow:  st.Workflow,
		Committed: st.CommittedPrefix(),
		Stages:    st.stageCount(),
		Spilled:   len(st.Spilled),
		Comps:     len(st.CompDone),
		Resumes:   st.Resumes,
		Failed:    st.Failed,
		Sealed:    st.Sealed,
		Verdict:   st.Verdict,
		Records:   st.Records,
		Bytes:     bytes,
	}
}

func (st *State) stageCount() int {
	if st.Spec == nil {
		return 0
	}
	stages, err := st.Spec.Stages()
	if err != nil {
		return 0
	}
	return len(stages)
}

// Summary is the /runs listing row for one journal.
type Summary struct {
	ID        string `json:"id"`
	Workflow  string `json:"workflow"`
	Committed int    `json:"stages_committed"`
	Stages    int    `json:"stages_total"`
	Spilled   int    `json:"slots_spilled"`
	Comps     int    `json:"compensations"`
	Resumes   int    `json:"resumes"`
	Failed    bool   `json:"failed,omitempty"`
	Sealed    bool   `json:"sealed"`
	Verdict   string `json:"verdict,omitempty"`
	Records   int    `json:"records"`
	Bytes     int64  `json:"bytes"`
}
