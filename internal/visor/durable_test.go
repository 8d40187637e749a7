package visor

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/journal"
)

// countingRegistry is the pipeline registry with per-function execution
// counters (host-side, so they survive nothing — exactly the point: a
// resume must not re-run committed producers) and an export slot on sum.
func countingRegistry(counts map[string]*atomic.Int64) *Registry {
	r := NewRegistry()
	for _, name := range []string{"produce", "double", "sum", "unbook"} {
		counts[name] = &atomic.Int64{}
	}

	r.RegisterNative("produce", func(env *asstd.Env, ctx FuncContext) error {
		counts["produce"].Add(1)
		n := ctx.ParamInt("count", 2)
		for i := 0; i < int(n); i++ {
			b, err := asstd.NewBuffer(env, Slot("produce", 0, "double", i), 8)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(b.Bytes(), uint64(i+1))
		}
		return nil
	})
	r.RegisterNative("double", func(env *asstd.Env, ctx FuncContext) error {
		counts["double"].Add(1)
		in, err := asstd.FromSlot(env, Slot("produce", 0, "double", ctx.Instance))
		if err != nil {
			return err
		}
		v := binary.LittleEndian.Uint64(in.Bytes())
		in.Free()
		out, err := asstd.NewBuffer(env, Slot("double", ctx.Instance, "sum", 0), 8)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(out.Bytes(), v*2)
		return nil
	})
	r.RegisterNative("sum", func(env *asstd.Env, ctx FuncContext) error {
		counts["sum"].Add(1)
		total := uint64(0)
		n := ctx.ParamInt("count", 2)
		for i := 0; i < int(n); i++ {
			b, err := asstd.FromSlot(env, Slot("double", i, "sum", 0))
			if err != nil {
				return err
			}
			total += binary.LittleEndian.Uint64(b.Bytes())
			b.Free()
		}
		out, err := asstd.NewBuffer(env, Slot("sum", 0, "out", 0), 8)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(out.Bytes(), total)
		return nil
	})
	return r
}

func durableOpts(store *journal.Store, mutate func(*RunOptions)) RunOptions {
	return testOpts(func(o *RunOptions) {
		o.Journal = store
		o.ExportSlots = []string{Slot("sum", 0, "out", 0)}
		if mutate != nil {
			mutate(o)
		}
	})
}

func openTestStore(t *testing.T) *journal.Store {
	t.Helper()
	s, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDurableRunSealsOK(t *testing.T) {
	counts := map[string]*atomic.Int64{}
	v := New(countingRegistry(counts))
	store := openTestStore(t)
	res, err := v.RunWorkflow(pipelineWorkflow(2), durableOpts(store, nil))
	if err != nil {
		t.Fatalf("durable run: %v", err)
	}
	if res.RunID == "" || res.Verdict != "ok" || res.Resumed {
		t.Fatalf("result = %+v", res)
	}
	st, err := store.Load(res.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sealed || st.Verdict != "ok" || st.CommittedPrefix() != 3 {
		t.Fatalf("journal state = %+v", st)
	}
	// Final output: 2*(1+2) = 6.
	if got := binary.LittleEndian.Uint64(res.Exports[Slot("sum", 0, "out", 0)]); got != 6 {
		t.Fatalf("export = %d, want 6", got)
	}
	// Sealed runs refuse resume.
	o := durableOpts(store, func(o *RunOptions) { o.Resume = res.RunID })
	if _, err := v.RunWorkflow(pipelineWorkflow(2), o); !errors.Is(err, journal.ErrSealed) {
		t.Fatalf("resume of sealed run: err = %v, want ErrSealed", err)
	}
}

func TestDurableCrashResumeSkipsCommitted(t *testing.T) {
	counts := map[string]*atomic.Int64{}
	v := New(countingRegistry(counts))
	store := openTestStore(t)

	// Crash after stage 1's commit: produce and double are durable.
	o := durableOpts(store, func(o *RunOptions) {
		o.Faults = faults.NewPlan(1, faults.Crash{Point: "after-commit:1"})
	})
	res, err := v.RunWorkflow(pipelineWorkflow(2), o)
	if !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("crashpoint: err = %v, want ErrCrashPoint", err)
	}
	id := res.RunID
	st, err := store.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sealed || st.Failed || st.CommittedPrefix() != 2 {
		t.Fatalf("post-crash state = %+v", st)
	}

	// Resume with a fresh (empty) plan: committed stages are skipped.
	ro := durableOpts(store, func(o *RunOptions) { o.Resume = id })
	rres, err := v.RunWorkflow(pipelineWorkflow(2), ro)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !rres.Resumed || rres.StagesSkipped != 2 || rres.Verdict != "ok" {
		t.Fatalf("resume result = %+v", rres)
	}
	if got := counts["produce"].Load(); got != 1 {
		t.Fatalf("produce executed %d times, want 1 (resume must not re-run committed stages)", got)
	}
	if got := counts["double"].Load(); got != 2 {
		t.Fatalf("double executed %d instances, want 2", got)
	}
	if got := binary.LittleEndian.Uint64(rres.Exports[Slot("sum", 0, "out", 0)]); got != 6 {
		t.Fatalf("resumed export = %d, want 6", got)
	}
}

// sagaWorkflow: book(xN, compensated by unbook) -> pay (always fails).
func sagaWorkflow(n int) *dag.Workflow {
	return &dag.Workflow{
		Name: "saga",
		Functions: []dag.FuncSpec{
			{Name: "book", Instances: n, Compensate: "unbook"},
			{Name: "pay", DependsOn: []string{"book"}},
		},
		Compensations: []dag.FuncSpec{{Name: "unbook"}},
	}
}

func sagaRegistry(counts map[string]*atomic.Int64) *Registry {
	r := NewRegistry()
	for _, name := range []string{"book", "pay", "unbook"} {
		counts[name] = &atomic.Int64{}
	}
	r.RegisterNative("book", func(env *asstd.Env, ctx FuncContext) error {
		counts["book"].Add(1)
		return nil
	})
	r.RegisterNative("pay", func(env *asstd.Env, ctx FuncContext) error {
		counts["pay"].Add(1)
		return errors.New("card declined")
	})
	r.RegisterNative("unbook", func(env *asstd.Env, ctx FuncContext) error {
		counts["unbook"].Add(1)
		return nil
	})
	return r
}

func TestDurableFailureUnwindsSaga(t *testing.T) {
	counts := map[string]*atomic.Int64{}
	v := New(sagaRegistry(counts))
	store := openTestStore(t)
	o := testOpts(func(o *RunOptions) {
		o.Journal = store
	})
	res, err := v.RunWorkflow(sagaWorkflow(3), o)
	if err == nil || !strings.Contains(err.Error(), "card declined") {
		t.Fatalf("err = %v", err)
	}
	if res.Verdict != "compensated" || res.Compensations != 3 {
		t.Fatalf("result = %+v", res)
	}
	if got := counts["unbook"].Load(); got != 3 {
		t.Fatalf("unbook executed %d times, want 3", got)
	}
	st, err := store.Load(res.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sealed || st.Verdict != "compensated" || !st.Failed {
		t.Fatalf("journal state = %+v", st)
	}
	for _, key := range []string{"book:0@stage-0", "book:1@stage-0", "book:2@stage-0"} {
		if st.CompDone[key] != "ok" {
			t.Fatalf("comp %s = %q, want ok", key, st.CompDone[key])
		}
	}
}

func TestCompensationsExactlyOnceAcrossResume(t *testing.T) {
	counts := map[string]*atomic.Int64{}
	v := New(sagaRegistry(counts))
	store := openTestStore(t)

	// Crash mid-unwind, right after the first compensation commits.
	o := testOpts(func(o *RunOptions) {
		o.Journal = store
		o.Faults = faults.NewPlan(1, faults.Crash{Point: "after-comp:0"})
	})
	res, err := v.RunWorkflow(sagaWorkflow(3), o)
	if !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("err = %v, want ErrCrashPoint", err)
	}
	if got := counts["unbook"].Load(); got != 1 {
		t.Fatalf("unbook before crash = %d, want 1", got)
	}

	// The resume goes straight to the unwind and skips the journaled key.
	ro := testOpts(func(o *RunOptions) {
		o.Journal = store
		o.Resume = res.RunID
	})
	rres, rerr := v.RunWorkflow(sagaWorkflow(3), ro)
	if rerr == nil || !strings.Contains(rerr.Error(), "card declined") {
		t.Fatalf("resume err = %v", rerr)
	}
	if rres.Verdict != "compensated" || rres.Compensations != 2 {
		t.Fatalf("resume result = %+v", rres)
	}
	if got := counts["unbook"].Load(); got != 3 {
		t.Fatalf("unbook total = %d, want 3 (exactly once per instance)", got)
	}
	if got := counts["book"].Load(); got != 3 {
		t.Fatalf("book re-executed: %d, want 3", got)
	}
	st, err := store.Load(rres.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sealed || st.Verdict != "compensated" || len(st.CompDone) != 3 {
		t.Fatalf("journal state = %+v", st)
	}
}

func TestDurableRequiresJournalStore(t *testing.T) {
	v := New(countingRegistry(map[string]*atomic.Int64{}))
	// Resume without a journal store must fail loudly, not degrade into
	// a fresh non-durable run. (The store is what asks for durability, so
	// "durable without a store" cannot be written.)
	_, err := v.RunWorkflow(pipelineWorkflow(2), testOpts(func(o *RunOptions) { o.Resume = "some-run" }))
	if err == nil || !strings.Contains(err.Error(), "Journal") {
		t.Fatalf("err = %v, want journal-required error", err)
	}
}

// TestResumeIgnoresUncommittedSpills covers the torn-barrier window: a
// crash after a stage's slot-spilled records are journaled but before
// its stage-committed record lands. The resume re-executes that stage,
// so importing the orphaned spills would make the re-run collide on its
// own output slots (ErrSlotExists) and wrongly saga-unwind the run.
func TestResumeIgnoresUncommittedSpills(t *testing.T) {
	counts := map[string]*atomic.Int64{}
	v := New(countingRegistry(counts))
	store := openTestStore(t)

	// Crash right after stage 0 commits: produce is durable, double has
	// not run.
	o := durableOpts(store, func(o *RunOptions) {
		o.Faults = faults.NewPlan(1, faults.Crash{Point: "after-commit:0"})
	})
	res, err := v.RunWorkflow(pipelineWorkflow(2), o)
	if !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("crashpoint: err = %v, want ErrCrashPoint", err)
	}
	id := res.RunID

	// Simulate the torn barrier: journal stage 1's slot-spilled records
	// (and persist the payloads) without the stage-committed record, as
	// a crash between the spill fsync and the commit append would.
	jr, _, err := store.Resume(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.StageStarted(1); err != nil {
		t.Fatal(err)
	}
	spill := jr.Spill()
	for i := 0; i < 2; i++ {
		slot := Slot("double", i, "sum", 0)
		payload := make([]byte, 8)
		binary.LittleEndian.PutUint64(payload, uint64((i+1)*2))
		if err := spill.Put(slot, payload); err != nil {
			t.Fatal(err)
		}
		if err := jr.SlotSpilled(1, slot, 8, crc32.ChecksumIEEE(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := spill.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	// The resume must re-execute stage 1 from scratch and ignore its
	// orphaned spills.
	ro := durableOpts(store, func(o *RunOptions) { o.Resume = id })
	rres, err := v.RunWorkflow(pipelineWorkflow(2), ro)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !rres.Resumed || rres.StagesSkipped != 1 || rres.Verdict != "ok" {
		t.Fatalf("resume result = %+v", rres)
	}
	if got := counts["produce"].Load(); got != 1 {
		t.Fatalf("produce executed %d times, want 1", got)
	}
	if got := counts["double"].Load(); got != 2 {
		t.Fatalf("double executed %d instances, want 2 (stage 1 re-runs)", got)
	}
	if got := binary.LittleEndian.Uint64(rres.Exports[Slot("sum", 0, "out", 0)]); got != 6 {
		t.Fatalf("resumed export = %d, want 6", got)
	}
}

// slowKV is an in-memory xfer.KVClient whose Set stalls on chosen keys,
// stretching one barrier's spill write to expose commit reordering.
type slowKV struct {
	delay func(key string) time.Duration
	mu    sync.Mutex
	m     map[string][]byte
}

func (k *slowKV) Set(key string, value []byte) error {
	if d := k.delay(key); d > 0 {
		time.Sleep(d)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.m == nil {
		k.m = map[string][]byte{}
	}
	k.m[key] = append([]byte(nil), value...)
	return nil
}

func (k *slowKV) Get(key string) ([]byte, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.m[key]
	if !ok {
		return nil, errors.New("slowKV: no such key")
	}
	return append([]byte(nil), v...), nil
}

func (k *slowKV) Del(key string) (bool, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	_, ok := k.m[key]
	delete(k.m, key)
	return ok, nil
}

// readJournalRecords hand-decodes a journal file's length-prefixed
// record frames.
func readJournalRecords(t *testing.T, path string) []journal.Record {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []journal.Record
	for off := 0; off+8 <= len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		if off+8+n > len(raw) {
			break
		}
		var rec journal.Record
		if err := json.Unmarshal(raw[off+8:off+8+n], &rec); err != nil {
			t.Fatalf("record at offset %d: %v", off, err)
		}
		recs = append(recs, rec)
		off += 8 + n
	}
	return recs
}

// TestAsyncBarrierCommitsInStageOrder pins the prefix invariant of the
// pipelined barrier: even when stage 0's spill write is much slower
// than the later stages' (a 150ms-per-Put kv store here), the
// stage-committed records must reach the journal in stage order — a
// crash must never find stage N+1 committed without stage N.
func TestAsyncBarrierCommitsInStageOrder(t *testing.T) {
	counts := map[string]*atomic.Int64{}
	v := New(countingRegistry(counts))
	kv := &slowKV{delay: func(key string) time.Duration {
		if strings.Contains(key, "produce:") {
			return 150 * time.Millisecond
		}
		return 0
	}}
	store, err := journal.Open(t.TempDir(), journal.Options{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	// No fault plan, so the run uses the async (pipelined) barrier.
	res, err := v.RunWorkflow(pipelineWorkflow(2), durableOpts(store, nil))
	if err != nil {
		t.Fatalf("durable run: %v", err)
	}
	if res.Verdict != "ok" {
		t.Fatalf("verdict = %q, want ok", res.Verdict)
	}
	var commits []int
	for _, rec := range readJournalRecords(t, filepath.Join(store.Dir(), res.RunID+".journal")) {
		if rec.Kind == journal.KindStageCommit {
			commits = append(commits, rec.Stage)
		}
	}
	if len(commits) != 3 {
		t.Fatalf("stage-committed records = %v, want 3", commits)
	}
	for i, si := range commits {
		if si != i {
			t.Fatalf("stage-committed order = %v, want [0 1 2]", commits)
		}
	}
}

func TestDurableNonCrashOutputMatchesPlain(t *testing.T) {
	// The journal must not change what a run computes.
	plainCounts := map[string]*atomic.Int64{}
	vp := New(countingRegistry(plainCounts))
	var plainOut bytes.Buffer
	pres, err := vp.RunWorkflow(pipelineWorkflow(2), testOpts(func(o *RunOptions) {
		o.Stdout = &plainOut
		o.ExportSlots = []string{Slot("sum", 0, "out", 0)}
	}))
	if err != nil {
		t.Fatal(err)
	}
	durCounts := map[string]*atomic.Int64{}
	vd := New(countingRegistry(durCounts))
	dres, err := vd.RunWorkflow(pipelineWorkflow(2), durableOpts(openTestStore(t), nil))
	if err != nil {
		t.Fatal(err)
	}
	slot := Slot("sum", 0, "out", 0)
	if !bytes.Equal(pres.Exports[slot], dres.Exports[slot]) {
		t.Fatalf("durable export %x != plain export %x", dres.Exports[slot], pres.Exports[slot])
	}
}
