// Sagademo: durable workflow runs on the public API — write-ahead
// journaling at stage barriers, crash-resume, and saga compensation.
//
//	go run ./examples/sagademo
//
// A three-stage trip-booking workflow (book-flight -> book-hotel ->
// charge) runs three times against one journal directory:
//
//  1. happy path: every barrier is journaled, the run seals "ok"
//
//  2. terminal failure: charge declines, so the committed bookings
//     unwind in reverse order through their compensation handlers
//     and the run seals "compensated"
//
//  3. crash + resume: a seeded crashpoint kills the run after the
//     flight is committed; the resume replays the journal, skips the
//     committed stage (the flight is NOT booked twice) and finishes
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"os"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/journal"
	"alloystack/internal/visor"
)

// tripWorkflow books a flight and a hotel, then charges the card. The
// two bookings declare compensation handlers; charge is the pivot — if
// it fails there is nothing to undo downstream, only upstream.
func tripWorkflow() *dag.Workflow {
	return &dag.Workflow{
		Name: "trip",
		Functions: []dag.FuncSpec{
			{Name: "book-flight", Compensate: "cancel-flight"},
			{Name: "book-hotel", DependsOn: []string{"book-flight"}, Compensate: "cancel-hotel"},
			{Name: "charge", DependsOn: []string{"book-hotel"}},
		},
		Compensations: []dag.FuncSpec{
			{Name: "cancel-flight"},
			{Name: "cancel-hotel"},
		},
	}
}

// tripRegistry wires the five handlers. The booking counters are
// host-side state standing in for external side effects (a reservation
// in someone else's database) — exactly what a resume must not repeat
// and a saga must undo.
func tripRegistry(booked map[string]int, declineCharge bool) *visor.Registry {
	r := visor.NewRegistry()
	confirm := func(fn, next string) func(*asstd.Env, visor.FuncContext) error {
		return func(env *asstd.Env, ctx visor.FuncContext) error {
			booked[fn]++
			out, err := asstd.NewBuffer(env, visor.Slot(fn, 0, next, 0), 8)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(out.Bytes(), uint64(booked[fn]))
			return nil
		}
	}
	r.RegisterNative("book-flight", confirm("book-flight", "book-hotel"))
	r.RegisterNative("book-hotel", confirm("book-hotel", "charge"))
	r.RegisterNative("charge", func(env *asstd.Env, ctx visor.FuncContext) error {
		if declineCharge {
			return errors.New("card declined")
		}
		return nil
	})
	r.RegisterNative("cancel-flight", func(env *asstd.Env, ctx visor.FuncContext) error {
		booked["book-flight"]--
		return nil
	})
	r.RegisterNative("cancel-hotel", func(env *asstd.Env, ctx visor.FuncContext) error {
		booked["book-hotel"]--
		return nil
	})
	return r
}

func durableOpts(store *journal.Store) visor.RunOptions {
	ro := visor.DefaultRunOptions()
	ro.Journal = store
	ro.Stdout = os.Stdout
	return ro
}

func main() {
	dir, err := os.MkdirTemp("", "sagademo-journal-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Act 1: happy path. Every stage barrier appends a group-committed
	// record; the sealed journal is the run's durable history.
	booked := map[string]int{}
	v := visor.New(tripRegistry(booked, false))
	res, err := v.RunWorkflow(tripWorkflow(), durableOpts(store))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("act 1 — happy path: verdict=%q flight=%d hotel=%d\n",
		res.Verdict, booked["book-flight"], booked["book-hotel"])

	// Act 2: terminal failure at the pivot. The journal knows exactly
	// which stages committed, so the saga unwinds them — and only them —
	// in reverse order, journaling each compensation's idempotency key.
	booked = map[string]int{}
	v = visor.New(tripRegistry(booked, true))
	res, err = v.RunWorkflow(tripWorkflow(), durableOpts(store))
	if err == nil {
		log.Fatal("charge unexpectedly succeeded")
	}
	fmt.Printf("act 2 — card declined: verdict=%q compensations=%d flight=%d hotel=%d (all undone)\n",
		res.Verdict, res.Compensations, booked["book-flight"], booked["book-hotel"])

	// Act 3: crash after the flight's barrier commit — the journal is
	// left unsealed, as a killed visor process would leave it.
	booked = map[string]int{}
	v = visor.New(tripRegistry(booked, false))
	co := durableOpts(store)
	co.Faults = faults.NewPlan(1, faults.Crash{Point: "after-commit:0"})
	cres, cerr := v.RunWorkflow(tripWorkflow(), co)
	if !errors.Is(cerr, visor.ErrCrashPoint) {
		log.Fatalf("expected crashpoint, got %v", cerr)
	}
	fmt.Printf("act 3 — crashed after flight commit: run %s, flight booked %d time(s)\n",
		cres.RunID, booked["book-flight"])

	// Resume from the journal: the committed flight stage is skipped
	// (its spilled barrier outputs are re-imported), so the external
	// booking happens exactly once despite the crash.
	ro := durableOpts(store)
	ro.Resume = cres.RunID
	rres, err := v.RunWorkflow(tripWorkflow(), ro)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("          resumed: verdict=%q skipped=%d flight=%d hotel=%d (flight not re-booked)\n",
		rres.Verdict, rres.StagesSkipped, booked["book-flight"], booked["book-hotel"])

	st, err := store.Load(cres.RunID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("journal: %d/%d stages committed, sealed=%v, %d resume(s) recorded\n",
		st.CommittedPrefix(), len(tripWorkflow().Functions), st.Sealed, st.Resumes)
}
