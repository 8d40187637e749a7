package dag

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDAGParse feeds Parse bytes a peer's GET /workflows/{name} reply
// or a workflow file could hold. Parse must return a workflow or an error, never panic. An
// accepted workflow levels into stages that hold every function exactly
// once, each after all of its dependencies, and its JSON form parses
// back to the same stages. The seeds are in testdata/fuzz/FuzzDAGParse.
func FuzzDAGParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := Parse(data)
		if err != nil {
			return
		}
		stages, err := w.Stages()
		if err != nil {
			t.Fatalf("Parse accepted a workflow Stages rejects: %v", err)
		}
		stageOf := make(map[string]int)
		for si, stage := range stages {
			for _, fn := range stage {
				if _, dup := stageOf[fn.Name]; dup {
					t.Fatalf("%q appears in more than one stage", fn.Name)
				}
				stageOf[fn.Name] = si
			}
		}
		if len(stageOf) != len(w.Functions) {
			t.Fatalf("stages hold %d functions, workflow has %d", len(stageOf), len(w.Functions))
		}
		for _, fn := range w.Functions {
			for _, d := range fn.DependsOn {
				if stageOf[d] >= stageOf[fn.Name] {
					t.Fatalf("%q (stage %d) depends on %q (stage %d)", fn.Name, stageOf[fn.Name], d, stageOf[d])
				}
			}
		}

		enc, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", enc, err)
		}
		stages2, err := w2.Stages()
		if err != nil {
			t.Fatal(err)
		}
		// Compared as JSON: an empty list or map and an absent one are
		// the same spec.
		a, _ := json.Marshal(stages)
		b, _ := json.Marshal(stages2)
		if !bytes.Equal(a, b) {
			t.Fatalf("stages changed across a JSON round trip:\n%s\n%s", a, b)
		}
	})
}
