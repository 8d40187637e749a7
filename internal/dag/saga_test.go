package dag

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// Compensation declarations and references are validated up front: a
// run must never discover mid-unwind that its handler doesn't exist.
func TestValidateCompensationReferences(t *testing.T) {
	base := func() *Workflow {
		return &Workflow{
			Name: "saga",
			Functions: []FuncSpec{
				{Name: "book", Compensate: "unbook"},
				{Name: "pay", DependsOn: []string{"book"}},
			},
			Compensations: []FuncSpec{{Name: "unbook"}},
		}
	}

	if err := base().Validate(); err != nil {
		t.Fatalf("valid saga workflow rejected: %v", err)
	}

	w := base()
	w.Functions[0].Compensate = "ghost"
	if err := w.Validate(); !errors.Is(err, ErrUnknownComp) {
		t.Fatalf("unknown compensate: err = %v, want ErrUnknownComp", err)
	}

	w = base()
	w.Compensations = append(w.Compensations, FuncSpec{Name: "unbook"})
	if err := w.Validate(); !errors.Is(err, ErrDupFunction) {
		t.Fatalf("duplicate handler: err = %v, want ErrDupFunction", err)
	}

	w = base()
	w.Compensations = append(w.Compensations, FuncSpec{Name: "book"})
	if err := w.Validate(); !errors.Is(err, ErrDupFunction) {
		t.Fatalf("handler colliding with function: err = %v, want ErrDupFunction", err)
	}

	w = base()
	w.Compensations[0].DependsOn = []string{"book"}
	if err := w.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("handler with dependencies: err = %v, want ErrBadConfig", err)
	}

	w = base()
	w.Compensations[0].Compensate = "unbook"
	if err := w.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("handler compensating itself: err = %v, want ErrBadConfig", err)
	}

	w = base()
	w.Compensations[0].Language = "cobol"
	if err := w.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("handler with bad language: err = %v, want ErrBadConfig", err)
	}

	w = base()
	w.Compensations = append(w.Compensations, FuncSpec{Name: ""})
	if err := w.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty handler name: err = %v, want ErrBadConfig", err)
	}
}

func TestCompensationSpecLookup(t *testing.T) {
	w := &Workflow{
		Name:      "saga",
		Functions: []FuncSpec{{Name: "book", Compensate: "unbook"}},
		Compensations: []FuncSpec{
			{Name: "unbook", Params: map[string]string{"mode": "soft"}},
		},
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	c, ok := w.CompensationSpec("unbook")
	if !ok || c.Param("mode", "") != "soft" {
		t.Fatalf("CompensationSpec = %+v, %v", c, ok)
	}
	if _, ok := w.CompensationSpec("ghost"); ok {
		t.Fatal("unknown handler resolved")
	}
}

// Stages() ordering is what the saga unwind walks in reverse: the
// committed prefix of a mid-DAG failure must be a clean stage prefix,
// with every compensated function at its declared level.
func TestStagesOrderingForPartialFailure(t *testing.T) {
	// Diamond with a tail: a -> (b, c) -> d -> e. A failure in d's
	// stage unwinds exactly stages 0..1 (a, then b and c).
	w := &Workflow{
		Name: "diamond-tail",
		Functions: []FuncSpec{
			{Name: "e", DependsOn: []string{"d"}},
			{Name: "d", DependsOn: []string{"b", "c"}, Compensate: "undo"},
			{Name: "c", DependsOn: []string{"a"}, Compensate: "undo"},
			{Name: "b", DependsOn: []string{"a"}},
			{Name: "a", Compensate: "undo"},
		},
		Compensations: []FuncSpec{{Name: "undo"}},
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	stages, err := w.Stages()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a"}, {"b", "c"}, {"d"}, {"e"}}
	if len(stages) != len(want) {
		t.Fatalf("stage count = %d, want %d", len(stages), len(want))
	}
	for si, names := range want {
		if len(stages[si]) != len(names) {
			t.Fatalf("stage %d = %v", si, stages[si])
		}
		for i, n := range names {
			if stages[si][i].Name != n {
				t.Fatalf("stage %d[%d] = %s, want %s (deterministic order)",
					si, i, stages[si][i].Name, n)
			}
		}
	}
	// The unwind candidates for a failure at stage 2 — compensated
	// functions in stages 0..1 — are exactly a and c.
	var comp []string
	for si := 1; si >= 0; si-- {
		for _, f := range stages[si] {
			if f.Compensate != "" {
				comp = append(comp, f.Name)
			}
		}
	}
	if fmt.Sprint(comp) != "[c a]" {
		t.Fatalf("unwind candidates = %v, want [c a]", comp)
	}
}

// Fan-out stages carry per-instance compensation work: the instance
// count survives validation and staging, so one failed reduce unwinds
// every committed map instance.
func TestFanOutFanInPerInstanceCompensation(t *testing.T) {
	w := fanOutFanIn("wc", "map", "reduce", 4, nil)
	w.Functions[1].Compensate = "unmap" // the map fan-out
	w.Compensations = []FuncSpec{{Name: "unmap"}}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	stages, err := w.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 4 {
		t.Fatalf("stages = %d", len(stages))
	}
	m := stages[1][0]
	if m.Name != "map" || m.InstancesOf() != 4 || m.Compensate != "unmap" {
		t.Fatalf("map spec = %+v", m)
	}
	// Spec round-trips through JSON (the journal stores it that way).
	data, err := jsonRoundTrip(w)
	if err != nil {
		t.Fatal(err)
	}
	if data.Functions[1].Compensate != "unmap" || len(data.Compensations) != 1 {
		t.Fatalf("round-tripped spec lost saga fields: %+v", data)
	}
}

func jsonRoundTrip(w *Workflow) (*Workflow, error) {
	data, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}
