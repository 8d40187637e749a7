package visor

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/core"
	"alloystack/internal/journal"
	"alloystack/internal/libos"
	"alloystack/internal/trace"
)

// This file implements durable workflow runs: the visor-side glue around
// internal/journal. A durable run writes a write-ahead journal record at
// every stage barrier and spills the intermediate data crossing the
// barrier, so a crashed visor can resume the run from its last committed
// stage instead of re-executing the whole DAG. A terminal stage failure
// (as opposed to a crash) unwinds the committed prefix as a saga: each
// committed function's declared compensation handler runs in reverse
// commit order, exactly once across resumes, before the journal is
// sealed with a terminal verdict.
//
// Crash vs failure: a crashpoint (faults.Crash) kills the process — or,
// with no CrashFn installed, aborts the run with ErrCrashPoint — leaving
// the journal unsealed with no run-failed record, so a resume continues
// forward. A function that fails terminally appends run-failed first;
// the resume of such a run goes straight to the saga unwind.

// ErrCrashPoint is the soft-crash error: a faults.Crash point fired but
// no RunOptions.CrashFn was installed to kill the process, so the run
// aborts in-process with its journal left unsealed (resumable), exactly
// as a real crash would leave it.
var ErrCrashPoint = errors.New("visor: durability crashpoint reached")

// durableRun carries one invocation's journal handle and recovery state.
// A nil *durableRun is the non-durable run: every method the invoke path
// calls on it is a no-op there, the way a nil *trace.Tracer is.
type durableRun struct {
	// opts is the run's options: the fault plan crashpoints consult,
	// CrashFn, and the tracer whose flight dump is written.
	opts  *RunOptions
	store *journal.Store
	jr    *journal.Run
	spill *journal.Segment
	// st is the replayed journal state when resuming, nil for a fresh
	// run. resumeFrom is the first stage the forward pass must execute;
	// committed counts the stages durable so far (grows at barriers).
	st         *journal.State
	resumeFrom int
	committed  int
}

// openJournal opens the run's write-ahead journal before any work
// starts: a resume replays and re-opens an existing one, a durable run
// begins a fresh journal carrying the workflow spec, anything else
// leaves r.dj nil.
func (r *run) openJournal() error {
	opts := &r.opts
	s := opts.Journal
	if s == nil {
		if opts.Resume != "" {
			// Never degrade silently: a resume request without a journal
			// store would re-run the whole workflow fresh and non-durable.
			return errors.New("visor: RunOptions.Resume requires a Journal store")
		}
		return nil
	}
	d := &durableRun{opts: opts, store: s}
	if opts.Resume != "" {
		jr, st, err := s.Resume(opts.Resume)
		if err != nil {
			return err
		}
		if st.Workflow != r.w.Name {
			jr.Close()
			return fmt.Errorf("visor: resume %s: journal is for workflow %q, not %q",
				opts.Resume, st.Workflow, r.w.Name)
		}
		d.jr, d.st = jr, st
		d.resumeFrom = st.CommittedPrefix()
		d.committed = d.resumeFrom
	} else {
		jr, err := s.Begin("", r.w)
		if err != nil {
			return err
		}
		d.jr = jr
	}
	d.spill = d.jr.Spill()
	r.dj = d
	return nil
}

// close drops the journal handle on every exit path. Seal closes it
// too, so this is a no-op after a seal.
func (d *durableRun) close() {
	if d != nil {
		d.jr.Close()
	}
}

// skips reports whether stage si was committed before the crash this
// run resumes from.
func (d *durableRun) skips(si int) bool { return d != nil && si < d.resumeFrom }

// crash consults the fault plan for the crashpoint "kind:n". When it
// fires, the flight dump is written next to the journal (pre-crash
// spans must survive the process), the journal handle is closed
// *unsealed* — a crash is not a failure — and either CrashFn kills the
// process or the run aborts with ErrCrashPoint.
func (d *durableRun) crash(kind string, n int) error {
	point := fmt.Sprintf("%s:%d", kind, n)
	if !d.opts.Faults.CrashAt(point) {
		return nil
	}
	d.flightDump("crashpoint " + point)
	d.jr.Close()
	if d.opts.CrashFn != nil {
		d.opts.CrashFn(point)
	}
	return fmt.Errorf("%w: %s", ErrCrashPoint, point)
}

// flightDump appends the tracer's flight dump to the run's
// <id>.flight.log beside the journal. Barrier commits, resume starts,
// crashpoints and seals all dump here, so the spans leading up to a
// crash are on disk before the process dies.
func (d *durableRun) flightDump(reason string) {
	tr := d.opts.Trace
	if tr == nil {
		return
	}
	f, err := os.OpenFile(d.store.FlightPath(d.jr.ID()),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	tr.FlightDump(f, reason)
	f.Close()
}

// resume re-enters a journaled run after boot: a run that crashed on its
// forward pass gets the spilled outputs of its committed stages back; a
// run that had already failed terminally finishes its saga unwind and
// reports the original failure.
func (d *durableRun) resume(r *run) error {
	if d == nil {
		return nil
	}
	r.res.RunID = d.jr.ID()
	if d.st == nil {
		return nil
	}
	r.res.Resumed = true
	d.flightDump(fmt.Sprintf("run %s resumed from stage %d", r.res.RunID, d.resumeFrom))
	if !d.st.Failed {
		return d.importCommitted(r)
	}
	// The crash interrupted the saga unwind, not the forward pass.
	if err := d.unwind(r); err != nil {
		return err
	}
	r.res.E2E = time.Since(r.start)
	r.res.TraceID = r.opts.Trace.TraceID()
	return fmt.Errorf("visor: run %s had failed terminally: %s (saga verdict %s)",
		r.res.RunID, d.st.FailDetail, r.res.Verdict)
}

// beginStage journals that stage si is about to run.
func (d *durableRun) beginStage(si int) error {
	if d == nil {
		return nil
	}
	if err := d.crash("before-stage", si); err != nil {
		return err
	}
	return d.jr.StageStarted(si)
}

// commitStage is the barrier after stage si: its outputs are spilled and
// its commit record journaled before the next stage runs.
func (d *durableRun) commitStage(r *run, si int) error {
	if d == nil {
		return nil
	}
	if err := d.crash("after-stage", si); err != nil {
		return err
	}
	if err := d.barrier(r, si); err != nil {
		return fmt.Errorf("visor: journal barrier %d: %w", si, err)
	}
	d.flightDump(fmt.Sprintf("stage %d barrier", si))
	return d.crash("after-commit", si)
}

// failStage is the terminal failure of stage si: journal it, unwind the
// committed prefix as a saga and seal with the unwind's verdict. It
// returns ferr unless the journal itself fails.
func (d *durableRun) failStage(r *run, si int, ferr error) error {
	if d == nil {
		return ferr
	}
	if err := d.jr.Failed(si, ferr.Error()); err != nil {
		return err
	}
	if err := d.unwind(r); err != nil {
		return err
	}
	return ferr
}

// seal writes the terminal record and reports its verdict.
func (d *durableRun) seal(res *RunResult, verdict string) error {
	if d == nil {
		return nil
	}
	if err := d.jr.Seal(verdict); err != nil {
		return err
	}
	res.Verdict = verdict
	d.flightDump("sealed " + verdict)
	return nil
}

// barrier makes stage si durable: snapshot every AsBuffer slot the stage
// produced for a later consumer (plus the run's export slots at the
// final stage), persist each to the spill segment, journal a
// slot-spilled record per payload, then commit the stage. The snapshot
// copies the slots before the next stage consumes them; a crash before
// the commit lands simply re-executes the uncommitted stage on resume.
func (d *durableRun) barrier(r *run, si int) error {
	want := edgeSlots(r.stages, func(from, to int) bool { return from == si && to > si })
	if si == len(r.stages)-1 {
		want = append(want, r.opts.ExportSlots...)
	}
	sp := r.root.Child(fmt.Sprintf("journal-barrier-%d", si), trace.CatJournal)
	defer sp.End()
	var data map[string][]byte
	if len(want) > 0 {
		var err error
		if data, err = snapshotSlots(r.wfd, want); err != nil {
			return err
		}
		sp.SetAttr("slots", len(data))
	}
	return d.persist(si, data)
}

// persist is the barrier's IO half: spill stage si's snapshotted
// payloads in name order, journal a slot-spilled record for each, then
// the stage-committed record that makes them reachable.
func (d *durableRun) persist(si int, data map[string][]byte) error {
	names := make([]string, 0, len(data))
	for slot := range data {
		names = append(names, slot)
	}
	sort.Strings(names)
	for _, slot := range names {
		payload := data[slot]
		sum := crc32.ChecksumIEEE(payload)
		if err := d.spill.Put(slot, payload); err != nil {
			return err
		}
		if err := d.jr.SlotSpilled(si, slot, int64(len(payload)), sum); err != nil {
			return err
		}
	}
	if len(names) > 0 {
		// One fsync for the whole barrier's payloads, before the
		// commit record.
		if err := d.spill.Sync(); err != nil {
			return err
		}
	}
	if err := d.jr.StageCommitted(si); err != nil {
		return err
	}
	d.committed = si + 1
	return nil
}

// importCommitted re-registers the journaled spill payloads a resumed
// run still needs: every spilled slot whose consumer stage is at or past
// the resume point (slots consumed entirely inside the committed prefix
// are dead weight). Each payload is verified against its journaled CRC.
func (d *durableRun) importCommitted(r *run) error {
	if len(d.st.Spilled) == 0 {
		return nil
	}
	stageOf := stageIndex(r.stages)
	payloads := make(map[string][]byte)
	for _, sp := range d.st.Spilled {
		if sp.Stage >= d.resumeFrom || !d.st.Committed[sp.Stage] {
			// The producer stage is not in the committed prefix: a crash
			// inside the barrier window can journal slot-spilled records
			// (and even partial spill files) before the stage-committed
			// record lands. The resume re-executes that producer, which
			// re-registers its output slots — importing the orphaned
			// spill would make the re-run fail on ErrSlotExists.
			continue
		}
		if consumerStage(sp.Slot, stageOf) < d.resumeFrom {
			continue
		}
		data, err := d.spill.Get(sp.Slot, sp.Sum)
		if err != nil {
			return fmt.Errorf("visor: journal spill %q: %w", sp.Slot, err)
		}
		payloads[sp.Slot] = data
	}
	if len(payloads) == 0 {
		return nil
	}
	span := r.root.Child("journal-import", trace.CatJournal)
	span.SetAttr("slots", len(payloads))
	defer span.End()
	if err := importSlots(r.wfd, payloads); err != nil {
		return fmt.Errorf("visor: journal import: %w", err)
	}
	return nil
}

// consumerStage parses the consuming function out of a conventional
// "from:i->to:j" slot name and maps it to its stage. Slots that do not
// parse — or name a function outside the DAG, like export sinks — are
// always worth importing, so they map to the far end.
func consumerStage(slot string, stageOf map[string]int) int {
	_, rest, ok := strings.Cut(slot, "->")
	if !ok {
		return math.MaxInt
	}
	name := rest
	if i := strings.LastIndexByte(rest, ':'); i > 0 {
		name = rest[:i]
	}
	if si, ok := stageOf[name]; ok {
		return si
	}
	return math.MaxInt
}

// snapshotSlots copies the named slots' bytes out of the WFD without
// consuming them: acquire (which deregisters), copy, re-register the
// same buffer under the same slot. Downstream stages still find their
// inputs exactly where the producer left them; the copy is what the
// spill segment persists. Slots never registered are skipped.
func snapshotSlots(wfd *core.WFD, slots []string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	err := wfd.Run("__journal-spill", func(env *asstd.Env) error {
		for _, slot := range slots {
			if _, dup := out[slot]; dup {
				continue
			}
			b, err := asstd.FromSlot(env, slot)
			if err != nil {
				if errors.Is(err, libos.ErrSlotMissing) {
					continue // candidate pair the workload never used
				}
				return err
			}
			data := make([]byte, len(b.Bytes()))
			copy(data, b.Bytes())
			if err := b.Forward(slot); err != nil {
				return err
			}
			out[slot] = data
		}
		return nil
	})
	return out, err
}

// unwind runs the saga: every committed stage's compensation handlers
// execute in reverse commit order, each under a journaled idempotency
// key ("fn:i@stage-si") so a crash mid-unwind never re-runs a handler a
// later resume sees as done. The journal is then sealed with the
// verdict: "compensated", or "comp-failed" when any handler failed. An
// after-comp crashpoint that fires leaves it unsealed.
func (d *durableRun) unwind(r *run) error {
	verdict := "compensated"
	compSeq := 0
	for si := d.committed - 1; si >= 0; si-- {
		for _, spec := range r.stages[si] {
			comp, ok := r.w.CompensationSpec(spec.Compensate)
			if spec.Compensate == "" || !ok {
				continue // Validate rejects a dangling name before any run starts
			}
			im := r.comps[comp.Name]
			params := make(map[string]string, len(comp.Params)+1)
			for k, val := range comp.Params {
				params[k] = val
			}
			params["__for"] = spec.Name
			n := spec.InstancesOf()
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("%s:%d@stage-%d", spec.Name, i, si)
				if d.st != nil && d.st.CompDone[key] != "" {
					if d.st.CompDone[key] == "failed" {
						verdict = "comp-failed"
					}
					// Exactly-once: journaled as done. Still counts
					// toward compSeq so "after-comp:K" crashpoints name
					// the same physical compensation whether or not the
					// unwind is a resumed one.
					compSeq++
					continue
				}
				if err := d.jr.CompStarted(key); err != nil {
					return err
				}
				span := r.root.Child("comp:"+key, trace.CatComp)
				a := &instance{r: r, im: &im, span: span, fctx: &FuncContext{Workflow: r.w.Name,
					Function: comp.Name, Instance: i, Instances: n, Stage: si, Params: params}}
				cerr := r.wfd.InitEnv(&a.env, comp.Name)
				if cerr == nil {
					cerr = r.wfd.RunCtx(context.Background(), &a.env, a)
				}
				detail := ""
				if cerr != nil {
					detail = cerr.Error()
					span.SetAttr("error", detail)
					verdict = "comp-failed"
				}
				span.End()
				if err := d.jr.CompDone(key, cerr == nil, detail); err != nil {
					return err
				}
				d.store.CountComp(cerr == nil)
				r.res.Compensations++
				if err := d.crash("after-comp", compSeq); err != nil {
					return err
				}
				compSeq++
			}
		}
	}
	return d.seal(r.res, verdict)
}
