// Package dag models serverless workflow DAGs and their JSON
// configuration files. The visor's orchestrator consumes a validated
// Workflow: functions with dependencies, instance counts per function
// (the "x instances per function" axis of Figures 12-13), and free-form
// parameters passed to the function logic. Stages are the topological
// levels of the DAG; the orchestrator runs each stage's instances in
// parallel and barriers between stages (fan-out/fan-in via AsBuffer
// slots, §5).
package dag

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// Errors returned by workflow validation.
var (
	ErrEmpty       = errors.New("dag: workflow has no functions")
	ErrDupFunction = errors.New("dag: duplicate function name")
	ErrUnknownDep  = errors.New("dag: dependency on unknown function")
	ErrCycle       = errors.New("dag: workflow graph has a cycle")
	ErrBadConfig   = errors.New("dag: invalid configuration")
	// ErrUnknownComp flags a compensate reference that names no declared
	// compensation handler.
	ErrUnknownComp = errors.New("dag: compensate references unknown handler")
)

// maxInstances caps a function's instance count. The visor launches
// one goroutine per instance and names a slot for every
// (producer instance, consumer instance) pair of an edge, so the count
// a spec claims is work a node does; a spec can arrive from a peer
// (visor.FetchSpec).
const maxInstances = 256

// FuncSpec declares one function node of the workflow.
type FuncSpec struct {
	// Name identifies the function; it must be registered with the
	// visor's function registry.
	Name string `json:"name"`
	// DependsOn lists upstream function names (fan-in edges).
	DependsOn []string `json:"depends_on,omitempty"`
	// Instances is the parallel instance count (default 1).
	Instances int `json:"instances,omitempty"`
	// Language selects the tier: "native" (≈Rust), "c" (ASVM AOT),
	// "python" (ASVM interpreted). Default "native".
	Language string `json:"language,omitempty"`
	// Params are free-form key/value arguments to the function logic.
	Params map[string]string `json:"params,omitempty"`
	// Compensate names the compensation handler (declared in
	// Workflow.Compensations) that undoes this function's committed
	// effects when a later stage fails terminally and the run unwinds
	// as a saga. Empty means nothing to undo.
	Compensate string `json:"compensate,omitempty"`
}

// Workflow is a validated DAG of functions.
type Workflow struct {
	Name      string     `json:"name"`
	Functions []FuncSpec `json:"functions"`
	// Compensations declares the saga handlers Functions may reference
	// via Compensate. Handlers are not DAG nodes: they have no
	// dependencies, never run in the forward pass, and execute in
	// reverse commit order only when a durable run fails.
	Compensations []FuncSpec `json:"compensations,omitempty"`
}

// Parse decodes and validates a JSON workflow configuration.
func Parse(data []byte) (*Workflow, error) {
	var w Workflow
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &w, nil
}

// Validate checks structure: unique names, known dependencies, acyclic.
func (w *Workflow) Validate() error {
	if len(w.Functions) == 0 {
		return ErrEmpty
	}
	seen := make(map[string]bool, len(w.Functions))
	for _, f := range w.Functions {
		if f.Name == "" {
			return fmt.Errorf("%w: function with empty name", ErrBadConfig)
		}
		if seen[f.Name] {
			return fmt.Errorf("%w: %s", ErrDupFunction, f.Name)
		}
		seen[f.Name] = true
		if f.Instances < 0 || f.Instances > maxInstances {
			return fmt.Errorf("%w: %s: instances %d outside 0..%d", ErrBadConfig, f.Name, f.Instances, maxInstances)
		}
		switch f.Language {
		case "", "native", "c", "python":
		default:
			return fmt.Errorf("%w: %s: unknown language %q", ErrBadConfig, f.Name, f.Language)
		}
	}
	comps := make(map[string]bool, len(w.Compensations))
	for _, c := range w.Compensations {
		if c.Name == "" {
			return fmt.Errorf("%w: compensation with empty name", ErrBadConfig)
		}
		if comps[c.Name] {
			return fmt.Errorf("%w: compensation %s", ErrDupFunction, c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: compensation %s collides with a function", ErrDupFunction, c.Name)
		}
		comps[c.Name] = true
		if len(c.DependsOn) > 0 {
			return fmt.Errorf("%w: compensation %s: handlers take no dependencies", ErrBadConfig, c.Name)
		}
		if c.Compensate != "" {
			return fmt.Errorf("%w: compensation %s: handlers cannot themselves compensate", ErrBadConfig, c.Name)
		}
		switch c.Language {
		case "", "native", "c", "python":
		default:
			return fmt.Errorf("%w: compensation %s: unknown language %q", ErrBadConfig, c.Name, c.Language)
		}
	}
	for _, f := range w.Functions {
		for _, d := range f.DependsOn {
			if !seen[d] {
				return fmt.Errorf("%w: %s depends on %s", ErrUnknownDep, f.Name, d)
			}
		}
		if f.Compensate != "" && !comps[f.Compensate] {
			return fmt.Errorf("%w: %s compensates with %s", ErrUnknownComp, f.Name, f.Compensate)
		}
	}
	if _, err := w.Stages(); err != nil {
		return err
	}
	return nil
}

// CompensationSpec looks up a declared compensation handler by name.
func (w *Workflow) CompensationSpec(name string) (FuncSpec, bool) {
	for _, c := range w.Compensations {
		if c.Name == name {
			return c, true
		}
	}
	return FuncSpec{}, false
}

// Stages returns the topological levels of the DAG: stage i contains
// every function whose longest dependency chain has length i. Functions
// within a stage run in parallel; stages run in order.
func (w *Workflow) Stages() ([][]FuncSpec, error) {
	byName := make(map[string]FuncSpec, len(w.Functions))
	for _, f := range w.Functions {
		byName[f.Name] = f
	}
	level := make(map[string]int, len(w.Functions))
	state := make(map[string]int, len(w.Functions)) // 0=unseen 1=visiting 2=done

	var visit func(name string) (int, error)
	visit = func(name string) (int, error) {
		switch state[name] {
		case 1:
			return 0, fmt.Errorf("%w: at %s", ErrCycle, name)
		case 2:
			return level[name], nil
		}
		state[name] = 1
		lv := 0
		for _, d := range byName[name].DependsOn {
			dl, err := visit(d)
			if err != nil {
				return 0, err
			}
			if dl+1 > lv {
				lv = dl + 1
			}
		}
		state[name] = 2
		level[name] = lv
		return lv, nil
	}

	maxLevel := 0
	for _, f := range w.Functions {
		lv, err := visit(f.Name)
		if err != nil {
			return nil, err
		}
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	stages := make([][]FuncSpec, maxLevel+1)
	for _, f := range w.Functions {
		lv := level[f.Name]
		stages[lv] = append(stages[lv], f)
	}
	// Deterministic order within a stage.
	for _, s := range stages {
		sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	}
	return stages, nil
}

// InstancesOf returns the effective instance count for a spec.
func (f *FuncSpec) InstancesOf() int {
	if f.Instances <= 0 {
		return 1
	}
	return f.Instances
}

// Param fetches a parameter with a default.
func (f *FuncSpec) Param(key, def string) string {
	if v, ok := f.Params[key]; ok {
		return v
	}
	return def
}

// TotalInstances counts function instances across the workflow.
func (w *Workflow) TotalInstances() int {
	n := 0
	for _, f := range w.Functions {
		n += f.InstancesOf()
	}
	return n
}

// Chain builds a linear workflow of length n where each function depends
// on its predecessor — the FunctionChain topology ("x functions" in
// Figures 12-13). The namer maps index to function name.
func Chain(name string, n int, namer func(i int) string, params map[string]string) *Workflow {
	w := &Workflow{Name: name}
	for i := 0; i < n; i++ {
		f := FuncSpec{Name: namer(i), Params: params}
		if i > 0 {
			f.DependsOn = []string{namer(i - 1)}
		}
		w.Functions = append(w.Functions, f)
	}
	return w
}
