package journal

import (
	"errors"
	"hash/crc32"
	"os"
	"testing"
	"time"

	"alloystack/internal/dag"
)

// fixedClock returns a deterministic, strictly advancing clock.
func fixedClock() func() time.Time {
	base := time.Unix(1000, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func testWorkflow() *dag.Workflow {
	return dag.Chain("wf", 4, func(i int) string {
		return []string{"f0", "f1", "f2", "f3"}[i]
	}, nil)
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBeginReplaySeal(t *testing.T) {
	s := openStore(t)
	run, err := s.Begin("", testWorkflow())
	if err != nil {
		t.Fatal(err)
	}
	id := run.ID()
	if err := run.StageStarted(0); err != nil {
		t.Fatal(err)
	}
	if err := run.SlotSpilled(0, "f0:0->f1:0", 8, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if err := run.StageCommitted(0); err != nil {
		t.Fatal(err)
	}
	if err := run.Seal("ok"); err != nil {
		t.Fatal(err)
	}

	st, err := s.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workflow != "wf" || st.Spec == nil || len(st.Spec.Functions) != 4 {
		t.Fatalf("state workflow/spec wrong: %+v", st)
	}
	if !st.Committed[0] || st.CommittedPrefix() != 1 {
		t.Fatalf("committed prefix = %d, want 1", st.CommittedPrefix())
	}
	if len(st.Spilled) != 1 || st.Spilled[0].Slot != "f0:0->f1:0" || st.Spilled[0].Sum != 0xDEAD {
		t.Fatalf("spilled = %+v", st.Spilled)
	}
	if !st.Sealed || st.Verdict != "ok" {
		t.Fatalf("sealed/verdict = %v/%q", st.Sealed, st.Verdict)
	}
	if got := s.Stats(); got.Appends != 5 || got.Bytes == 0 {
		t.Fatalf("stats = %+v, want 5 appends", got)
	}
}

func TestTornTailTruncatedOnResume(t *testing.T) {
	s := openStore(t)
	run, err := s.Begin("torn", testWorkflow())
	if err != nil {
		t.Fatal(err)
	}
	if err := run.StageCommitted(0); err != nil {
		t.Fatal(err)
	}
	run.Close()

	// Crash mid-append: garbage where the next frame would start.
	path := s.journalPath("torn")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xAA, 0xBB}) // short frame
	f.Close()

	st, err := s.Load("torn")
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || !st.Committed[0] {
		t.Fatalf("torn-tail replay: %+v", st)
	}

	run2, st2, err := s.Resume("torn")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", st2.Resumes)
	}
	if err := run2.StageCommitted(1); err != nil {
		t.Fatal(err)
	}
	if err := run2.Seal("ok"); err != nil {
		t.Fatal(err)
	}
	st3, err := s.Load("torn")
	if err != nil {
		t.Fatal(err)
	}
	// admitted, commit-0, resumed, commit-1, sealed — the torn bytes gone.
	if st3.Records != 5 || !st3.Committed[1] || !st3.Sealed {
		t.Fatalf("post-resume replay: %+v", st3)
	}
}

func TestSealedRunRefusesResume(t *testing.T) {
	s := openStore(t)
	run, err := s.Begin("done", testWorkflow())
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Seal("ok"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Resume("done"); !errors.Is(err, ErrSealed) {
		t.Fatalf("resume sealed = %v, want ErrSealed", err)
	}
	if _, _, err := s.Resume("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resume missing = %v, want ErrNotFound", err)
	}
}

func TestCommittedPrefixStopsAtGap(t *testing.T) {
	st := &State{Committed: map[int]bool{0: true, 2: true}}
	if got := st.CommittedPrefix(); got != 1 {
		t.Fatalf("prefix = %d, want 1 (stage 1 missing)", got)
	}
}

func TestCompensationRecords(t *testing.T) {
	s := openStore(t)
	run, err := s.Begin("saga", testWorkflow())
	if err != nil {
		t.Fatal(err)
	}
	run.StageCommitted(0)
	run.Failed(1, "boom")
	run.CompStarted("f0:0@stage-0")
	run.CompDone("f0:0@stage-0", true, "")
	run.Seal("compensated")

	st, err := s.Load("saga")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Failed || st.FailDetail != "boom" {
		t.Fatalf("failed state: %+v", st)
	}
	if st.CompDone["f0:0@stage-0"] != "ok" {
		t.Fatalf("comp state: %+v", st)
	}
	if st.Verdict != "compensated" {
		t.Fatalf("verdict = %q", st.Verdict)
	}
}

func TestFileSpillRoundTripAndChecksum(t *testing.T) {
	s := openStore(t)
	run, err := s.Begin("r1", testWorkflow())
	if err != nil {
		t.Fatal(err)
	}
	sp := run.Spill()
	data := []byte("intermediate payload")
	if err := sp.Put("f0:0->f1:0", data); err != nil {
		t.Fatal(err)
	}
	sum := checksum(data)
	got, err := sp.Get("f0:0->f1:0", sum)
	if err != nil || string(got) != string(data) {
		t.Fatalf("get = %q, %v", got, err)
	}
	if _, err := sp.Get("f0:0->f1:0", sum+1); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bad sum = %v, want ErrChecksum", err)
	}
	if _, err := run.Spill().Get("f1:0->f2:0", sum); !errors.Is(err, ErrNoSpill) {
		t.Fatalf("missing slot = %v, want ErrNoSpill", err)
	}
}

func TestListSummaries(t *testing.T) {
	s := openStore(t)
	w := testWorkflow()
	r1, _ := s.Begin("a-run", w)
	r1.StageCommitted(0)
	r1.Close()
	r2, _ := s.Begin("b-run", w)
	r2.Seal("ok")

	list, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "a-run" || list[1].ID != "b-run" {
		t.Fatalf("list = %+v", list)
	}
	if list[0].Committed != 1 || list[0].Stages != 4 || list[0].Sealed {
		t.Fatalf("a-run summary = %+v", list[0])
	}
	if !list[1].Sealed || list[1].Verdict != "ok" {
		t.Fatalf("b-run summary = %+v", list[1])
	}
}

func TestNextIDSkipsExisting(t *testing.T) {
	s := openStore(t)
	if _, err := s.Begin("wf-000001", testWorkflow()); err != nil {
		t.Fatal(err)
	}
	if id := s.NextID("wf"); id != "wf-000002" {
		t.Fatalf("next id = %q, want wf-000002", id)
	}
	if _, err := s.Begin("wf-000001", testWorkflow()); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate begin = %v, want ErrExists", err)
	}
}

func TestInjectedClockStampsRecords(t *testing.T) {
	base := time.Unix(42, 0)
	s, err := Open(t.TempDir(), Options{Clock: func() time.Time { return base }})
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Begin("clocked", testWorkflow())
	if err != nil {
		t.Fatal(err)
	}
	run.Seal("ok")
	recs, _, err := replayFile(s.journalPath("clocked"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.At != base.UnixNano() {
			t.Fatalf("record %s at %d, want injected %d", rec.Kind, rec.At, base.UnixNano())
		}
	}
}

// checksum mirrors the spill segment's CRC32-IEEE.
func checksum(data []byte) uint32 { return crc32.ChecksumIEEE(data) }
