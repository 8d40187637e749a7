package dag

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestParseValidConfig(t *testing.T) {
	cfg := `{
	  "name": "image-pipeline",
	  "functions": [
	    {"name": "extract", "params": {"input": "/img.png"}},
	    {"name": "transform", "depends_on": ["extract"], "instances": 3},
	    {"name": "store", "depends_on": ["transform"], "language": "python"}
	  ]
	}`
	w, err := Parse([]byte(cfg))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if w.Name != "image-pipeline" || len(w.Functions) != 3 {
		t.Fatalf("parsed = %+v", w)
	}
	if w.Functions[0].Param("input", "") != "/img.png" {
		t.Fatal("params lost")
	}
	if w.TotalInstances() != 5 {
		t.Fatalf("TotalInstances = %d, want 5", w.TotalInstances())
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]struct {
		cfg  string
		want error
	}{
		"bad json":    {`{`, ErrBadConfig},
		"empty":       {`{"name":"x","functions":[]}`, ErrEmpty},
		"dup":         {`{"functions":[{"name":"a"},{"name":"a"}]}`, ErrDupFunction},
		"unknown dep": {`{"functions":[{"name":"a","depends_on":["ghost"]}]}`, ErrUnknownDep},
		"bad lang":    {`{"functions":[{"name":"a","language":"cobol"}]}`, ErrBadConfig},
		"no name":     {`{"functions":[{"name":""}]}`, ErrBadConfig},
		"cycle": {`{"functions":[
			{"name":"a","depends_on":["b"]},
			{"name":"b","depends_on":["a"]}]}`, ErrCycle},
	}
	for name, c := range cases {
		if _, err := Parse([]byte(c.cfg)); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", name, err, c.want)
		}
	}
}

// A spec's instance count is work the node does (a goroutine per
// instance, a slot name per instance pair of an edge), so Parse caps it.
func TestParseCapsInstances(t *testing.T) {
	spec := func(n int64) []byte {
		return []byte(fmt.Sprintf(`{"functions":[{"name":"a"},{"name":"b","depends_on":["a"],"instances":%d}]}`, n))
	}
	if _, err := Parse(spec(maxInstances)); err != nil {
		t.Fatalf("instances = cap: %v", err)
	}
	for _, n := range []int64{maxInstances + 1, 1 << 40} {
		if _, err := Parse(spec(n)); !errors.Is(err, ErrBadConfig) {
			t.Errorf("instances = %d: err = %v, want ErrBadConfig", n, err)
		}
	}
}

func TestStagesLinearChain(t *testing.T) {
	w := Chain("chain", 5, func(i int) string {
		return string(rune('a' + i))
	}, nil)
	stages, err := w.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 5 {
		t.Fatalf("chain of 5 has %d stages", len(stages))
	}
	for i, s := range stages {
		if len(s) != 1 || s[0].Name != string(rune('a'+i)) {
			t.Fatalf("stage %d = %+v", i, s)
		}
	}
}

// fanOutFanIn builds the map/reduce-style topology used by WordCount and
// ParallelSorting: source -> N×map -> N×reduce -> sink.
func fanOutFanIn(name string, mapName, reduceName string, instances int, params map[string]string) *Workflow {
	return &Workflow{
		Name: name,
		Functions: []FuncSpec{
			{Name: "split", Params: params},
			{Name: mapName, DependsOn: []string{"split"}, Instances: instances, Params: params},
			{Name: reduceName, DependsOn: []string{mapName}, Instances: instances, Params: params},
			{Name: "merge", DependsOn: []string{reduceName}, Params: params},
		},
	}
}

func TestStagesFanOutFanIn(t *testing.T) {
	w := fanOutFanIn("wc", "map", "reduce", 3, nil)
	stages, err := w.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 4 {
		t.Fatalf("stages = %d, want 4", len(stages))
	}
	if stages[0][0].Name != "split" || stages[1][0].Name != "map" ||
		stages[2][0].Name != "reduce" || stages[3][0].Name != "merge" {
		t.Fatalf("stage order wrong: %+v", stages)
	}
	if stages[1][0].InstancesOf() != 3 {
		t.Fatalf("map instances = %d", stages[1][0].InstancesOf())
	}
}

func TestStagesDiamond(t *testing.T) {
	w := &Workflow{
		Name: "diamond",
		Functions: []FuncSpec{
			{Name: "top"},
			{Name: "left", DependsOn: []string{"top"}},
			{Name: "right", DependsOn: []string{"top"}},
			{Name: "bottom", DependsOn: []string{"left", "right"}},
		},
	}
	stages, err := w.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("diamond has %d stages", len(stages))
	}
	if len(stages[1]) != 2 {
		t.Fatalf("middle stage = %+v", stages[1])
	}
	// Deterministic ordering inside a stage.
	if stages[1][0].Name != "left" || stages[1][1].Name != "right" {
		t.Fatalf("stage order not deterministic: %+v", stages[1])
	}
}

func TestUnevenDepthDAG(t *testing.T) {
	// A function depending on nodes at different depths lands one past
	// the deepest.
	w := &Workflow{
		Functions: []FuncSpec{
			{Name: "a"},
			{Name: "b", DependsOn: []string{"a"}},
			{Name: "c", DependsOn: []string{"a", "b"}},
		},
	}
	stages, err := w.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 || stages[2][0].Name != "c" {
		t.Fatalf("stages = %+v", stages)
	}
}

func TestInstancesDefault(t *testing.T) {
	f := FuncSpec{}
	if f.InstancesOf() != 1 {
		t.Fatalf("default instances = %d", f.InstancesOf())
	}
}

func TestParamDefault(t *testing.T) {
	f := FuncSpec{Params: map[string]string{"k": "v"}}
	if f.Param("k", "d") != "v" || f.Param("missing", "d") != "d" {
		t.Fatal("Param lookup broken")
	}
}

// Property: for any generated chain length, stages are a partition of
// the function set and respect dependencies.
func TestPropertyStagesPartition(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		w := Chain("c", n, func(i int) string {
			return "f" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		}, nil)
		stages, err := w.Stages()
		if err != nil {
			return false
		}
		count := 0
		pos := map[string]int{}
		for si, s := range stages {
			for _, fn := range s {
				count++
				pos[fn.Name] = si
			}
		}
		if count != n {
			return false
		}
		for _, fn := range w.Functions {
			for _, d := range fn.DependsOn {
				if pos[d] >= pos[fn.Name] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
