package asvm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// The three probes that crashed the parent's engine through int64
// overflow in a bounds check. Every one must trap with ErrOOB, on both
// engines; the same sources sit in the fuzz corpus as probe-*.
var overflowProbes = map[string]string{
	"mem.grow": `
memory 64
func run 0 0 1
  push 9223372036854775807
  mem.grow
  ret
end`,
	"load64": `
memory 64
func run 0 0 1
  push 9223372036854775804
  load64
  ret
end`,
	"mem.copy": `
memory 64
func run 0 0 1
  push 1
  push 1
  push 9223372036854775807
  mem.copy
  push 0
  ret
end`,
}

func TestOverflowProbesTrap(t *testing.T) {
	for name, src := range overflowProbes {
		for _, engine := range engines {
			inst := instantiate(t, src, Config{Engine: engine}, nil)
			if _, err := inst.Call("run"); !errors.Is(err, ErrOOB) {
				t.Errorf("%s on %v: err = %v, want ErrOOB", name, engine, err)
			}
		}
	}
	// The same wrap-around through a fused base+offset address: the add
	// overflows to a small positive address on neither engine.
	const fused = `
memory 64
func run 1 1 1
  local.get 0
  push 9223372036854775807
  add
  load8
  ret
end`
	for _, engine := range engines {
		inst := instantiate(t, fused, Config{Engine: engine}, nil)
		if _, err := inst.Call("run", 5); !errors.Is(err, ErrOOB) {
			t.Errorf("fused address on %v: err = %v, want ErrOOB", engine, err)
		}
		// -9223372036854775807 + 9223372036854775807 + 0 wraps to address 0.
		if v, err := inst.Call("run", math.MinInt64+1); err != nil || v != 0 {
			t.Errorf("wrapping to address 0 on %v: %d, %v", engine, v, err)
		}
	}
}

func TestHostViewsOfMemoryAreOverflowSafe(t *testing.T) {
	inst := instantiate(t, addSrc, Config{}, nil)
	for _, c := range [][2]int64{
		{math.MaxInt64, 1}, {1, math.MaxInt64}, {math.MaxInt64 - 3, 8}, {-1, 1}, {0, -1}, {4096, 1}, {4000, 97},
	} {
		if _, err := inst.Bytes(c[0], c[1]); !errors.Is(err, ErrOOB) {
			t.Errorf("Bytes(%d, %d): err = %v, want ErrOOB", c[0], c[1], err)
		}
		if _, err := inst.ReadString(c[0], c[1]); !errors.Is(err, ErrOOB) {
			t.Errorf("ReadString(%d, %d): err = %v, want ErrOOB", c[0], c[1], err)
		}
	}
	if err := inst.WriteBytes(math.MaxInt64, []byte("x")); !errors.Is(err, ErrOOB) {
		t.Errorf("WriteBytes at MaxInt64: err = %v, want ErrOOB", err)
	}
	if b, err := inst.Bytes(4096, 0); err != nil || len(b) != 0 {
		t.Errorf("empty range at the end of memory: %v, %v", b, err)
	}
}

// TestSpinProportionalToSteps is the guard a cost-scale switch needs:
// the modelled penalty is exactly (factor-1) units per source instruction
// on both engines, and exactly nothing at factor 1.
func TestSpinProportionalToSteps(t *testing.T) {
	for _, engine := range engines {
		for _, factor := range []float64{0, 1, 1.25, 1.3, 3, 8.5} {
			inst := instantiate(t, loopSrc, Config{Engine: engine, OverheadFactor: factor}, nil)
			for call := 0; call < 2; call++ {
				if _, err := inst.Call("sum", 1000); err != nil {
					t.Fatal(err)
				}
			}
			perStep := int64(0)
			if factor > 1 {
				perStep = int64(math.Round((factor - 1) * (1 << spinShift)))
			}
			// A Call burns every whole unit owed before it returns and
			// carries the fraction into the next.
			want := (inst.Steps() * perStep) >> spinShift
			if inst.spun != want {
				t.Errorf("%v at factor %v: %d units spun over %d steps, want %d", engine, factor, inst.spun, inst.Steps(), want)
			}
			if factor <= 1 && inst.spun != 0 {
				t.Errorf("%v at factor %v spun %d units, want none", engine, factor, inst.spun)
			}
		}
	}
}

func TestAOTRefusesProgramWithoutStaticShape(t *testing.T) {
	// One predecessor reaches the join with depth 2, the other with 0:
	// structurally valid, so the interpreter takes it; the AOT engine,
	// which has no register to give a slot of two depths, does not.
	prog := &Program{MemSize: 64, Funcs: []Func{{
		Name: "run", Results: 1,
		Code: []Instr{
			{Op: OpPush, Arg: 0},
			{Op: OpJz, Arg: 4},
			{Op: OpPush, Arg: 1},
			{Op: OpPush, Arg: 2},
			{Op: OpPush, Arg: 3},
			{Op: OpRet},
		},
	}}}
	if _, err := NewLinker().Instantiate(prog, Config{Engine: EngineInterp}); err != nil {
		t.Fatalf("interpreter refused it: %v", err)
	}
	_, err := NewLinker().Instantiate(prog, Config{Engine: EngineAOT})
	var se *ShapeError
	if !errors.As(err, &se) || se.Kind != ShapeJoin || !errors.Is(err, ErrValidation) {
		t.Fatalf("AOT instantiate: err = %v, want a ShapeJoin *ShapeError wrapping ErrValidation", err)
	}
}

// TestSharedProgramFirstUseIsConcurrent: the lazy compile is shared
// state reached by whichever instances come first — on a cold process,
// the two WordCount mappers at once. Run under -race.
func TestSharedProgramFirstUseIsConcurrent(t *testing.T) {
	prog := MustAssemble(loopSrc)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			inst, err := NewLinker().Instantiate(prog, Config{Engine: EngineAOT})
			if err != nil {
				t.Error(err)
				return
			}
			if got, err := inst.Call("sum", n); err != nil || got != n*(n-1)/2 {
				t.Errorf("sum(%d) = %d, %v", n, got, err)
			}
		}(int64(100 + g))
	}
	wg.Wait()
}

func TestHostSeesGrownMemoryAndItsErrorIsWrapped(t *testing.T) {
	const src = `
memory 64
import probe 0 1
import fail 1 1
func run 0 0 1
  call grow
  drop
  push 7
  hostcall fail
  ret
end
func grow 0 0 1
  push 1000
  mem.grow
  drop
  hostcall probe
  ret
end`
	boom := errors.New("boom")
	for _, engine := range engines {
		var seen int
		inst := instantiate(t, src, Config{Engine: engine}, map[string]HostFunc{
			"probe": func(vm *Instance, _ []int64) (int64, error) { seen = len(vm.Memory()); return 0, nil },
			"fail":  func(_ *Instance, args []int64) (int64, error) { return args[0], boom },
		})
		_, err := inst.Call("run")
		if seen != 1064 {
			t.Errorf("%v: host saw %d bytes of memory after mem.grow in its own call chain, want 1064", engine, seen)
		}
		if !errors.Is(err, boom) || err.Error() != "asvm: host fail: boom" {
			t.Errorf("%v: host error = %q, want it wrapped as asvm: host fail: boom", engine, err)
		}
	}
}

func TestHaltFromNestedFrame(t *testing.T) {
	// halt over an empty stack two calls down yields the topmost operand
	// of the nearest caller that has one; over a non-empty one, its top.
	const src = `
memory 64
func run 1 1 1
  push 41
  local.get 0
  call mid
  add
  ret
end
func mid 1 1 1
  local.get 0
  call leaf
  ret
end
func leaf 1 1 1
  local.get 0
  jz empty
  push 99
  halt
empty:
  halt
end`
	for _, engine := range engines {
		inst := instantiate(t, src, Config{Engine: engine}, nil)
		if got, err := inst.Call("run", 1); err != nil || got != 99 {
			t.Errorf("%v: halt over a value = %d, %v; want 99", engine, got, err)
		}
		if got, err := inst.Call("run", 0); err != nil || got != 41 {
			t.Errorf("%v: halt over an empty frame = %d, %v; want the caller's 41", engine, got, err)
		}
	}
}

// TestFuelLagIsUnderOneBlock sweeps the fuel bound across a loop: the
// AOT engine reports exhaustion exactly when the interpreter does, and
// has then run at most maxBlock source instructions further — one block,
// or a rotated latch with its header.
func TestFuelLagIsUnderOneBlock(t *testing.T) {
	prog := MustAssemble(loopSrc)
	need := func() int64 {
		inst, _ := NewLinker().Instantiate(prog, Config{Engine: EngineInterp})
		if _, err := inst.Call("sum", 20); err != nil {
			t.Fatal(err)
		}
		return inst.Steps()
	}()
	for fuel := int64(1); fuel <= need+2; fuel++ {
		var errs [2]error
		var steps [2]int64
		for i, engine := range engines {
			inst, err := NewLinker().Instantiate(prog, Config{Engine: engine, Fuel: fuel})
			if err != nil {
				t.Fatal(err)
			}
			_, errs[i] = inst.Call("sum", 20)
			steps[i] = inst.Steps()
		}
		if out := fuel < need; errors.Is(errs[0], ErrFuelExhausted) != out || errors.Is(errs[1], ErrFuelExhausted) != out {
			t.Fatalf("fuel %d of %d needed: interp %v, aot %v", fuel, need, errs[0], errs[1])
		}
		if lag := int64(prog.aot.maxBlock); errs[1] != nil && (steps[1] <= fuel || steps[1] > fuel+lag) {
			t.Fatalf("fuel %d: aot stopped after %d steps, want within (%d, %d]", fuel, steps[1], fuel, fuel+lag)
		}
	}
}

func TestAOTSteadyStateCallAllocatesNothing(t *testing.T) {
	const src = `
memory 4096
import h 2 1
func run 1 2 1
  local.get 0
  call twice
  push 3
  hostcall h
  ret
end
func twice 1 1 1
  local.get 0
  push 2
  mul
  ret
end`
	inst := instantiate(t, src, Config{Engine: EngineAOT}, map[string]HostFunc{
		"h": func(_ *Instance, args []int64) (int64, error) { return args[0] + args[1], nil },
	})
	if n := testing.AllocsPerRun(100, func() {
		if got, err := inst.Call("run", 20); err != nil || got != 43 {
			t.Fatalf("run(20) = %d, %v", got, err)
		}
	}); n != 0 {
		t.Fatalf("a steady-state Call allocates %v times, want 0", n)
	}
}

func TestStackCapBoundsBothEngines(t *testing.T) {
	// Each level of recursion keeps one operand under the call.
	const src = `
memory 64
func run 1 1 1
  local.get 0
  jz done
  push 1
  local.get 0
  push 1
  sub
  call run
  add
  ret
done:
  push 0
  ret
end`
	for _, engine := range engines {
		inst := instantiate(t, src, Config{Engine: engine, StackCap: 64}, nil)
		if got, err := inst.Call("run", 20); err != nil || got != 20 {
			t.Errorf("%v: run(20) = %d, %v", engine, got, err)
		}
		if _, err := inst.Call("run", 200); !errors.Is(err, ErrStackOver) {
			t.Errorf("%v: 200 operands under a cap of 64: err = %v, want ErrStackOver", engine, err)
		}
	}
}

// TestLoweringFusesTheLoop is the deterministic form of "the AOT engine
// must beat interpretation": the summing loop is rotated, so an iteration
// dispatches two register instructions — add, then increment-compare-and-
// branch — for thirteen bytecode steps, every one charged.
func TestLoweringFusesTheLoop(t *testing.T) {
	prog := MustAssemble(loopSrc)
	c, err := prog.compile()
	if err != nil {
		t.Fatal(err)
	}
	var ops []rop
	var charged int32
	for _, ins := range c.code {
		ops = append(ops, ins.op)
		charged += ins.n
	}
	latch := ropIncBrEq + rop(OpLtS-OpEq)
	want := []rop{
		ropMovI, ropMovI, ropCharge, // acc = 0; i = 0; fall into the loop head
		ropBrEq + rop(OpGeS-OpEq), // loop: if i >= n goto done
		ropAdd,                    // body: acc += i
		latch,                     // i += 1; if i < n goto body
		ropJmp,                    // uncharged: goto done
		ropRet,                    // done: return acc
	}
	if !slices.Equal(ops, want) {
		t.Fatalf("register code %v, want %v", ops, want)
	}
	// The latch charges its own nine source instructions and the header's
	// four, so every path charges what the interpreter steps: the code
	// charges each source instruction once and the header once more.
	const header, iteration = 4, 13
	if n := c.code[slices.Index(ops, latch)].n; n != iteration {
		t.Fatalf("one iteration charges %d steps, want %d", n, iteration)
	}
	src := int64(len(prog.Funcs[0].Code))
	if charged != int32(src+header) {
		t.Fatalf("terminators charge %d source instructions of %d, want each once and the header twice", charged, src)
	}
	for _, n := range []int64{1, 2, 7} {
		// The first iteration and the header's final check are in src+header.
		want := src + header + iteration*(n-1)
		for _, engine := range engines {
			inst := instantiate(t, loopSrc, Config{Engine: engine}, nil)
			if _, err := inst.Call("sum", n); err != nil {
				t.Fatal(err)
			}
			if inst.Steps() != want {
				t.Fatalf("engine %v: sum(%d) charged %d steps, want %d", engine, n, inst.Steps(), want)
			}
		}
	}
}

// fusionLoop wraps a loop header and latch in a function run(n) that
// counts i up from 0 and adds 3 to acc per iteration, returning
// acc + 1000*i; locals 3 and 4 are free for a row's own use, and local 4
// is never written unless the row does.
const fusionLoop = `
memory 64
func run 1 5 1
  push 0
  local.set 1
  push 0
  local.set 2
head:
%s
  local.get 2
  push 3
  add
  local.set 2
%s
  jmp head
done:
  local.get 2
  local.get 1
  push 1000
  mul
  add
  ret
end`

// TestLoweringFusions has one row per peephole the lowering applies to a
// loop: each row's register code holds (or, for a near miss, lacks) the
// fused opcode, and the program returns and charges exactly what the
// interpreter does, with fuel exhaustion at most maxBlock steps late.
func TestLoweringFusions(t *testing.T) {
	const (
		bump     = "  local.get 1\n  push -1\n  sub\n  local.set 1" // i += 1, but not an add
		inc      = "  local.get 1\n  push 1\n  add\n  local.set 1"
		notInPl  = "  local.get 1\n  local.set 3\n  local.get 3\n  push 1\n  add\n  local.set 1"
		flagDone = bump + "\n  local.get 1\n  local.get 0\n  ge\n  local.set 3"
	)
	br := func(op Op) rop { return ropBrEq + rop(op-OpEq) }
	incBr := func(op Op) rop { return ropIncBrEq + rop(op-OpEq) }
	rows := []struct {
		name          string
		header, latch string
		want          rop  // an opcode the register code must hold
		absent        bool // ...or must not
	}{
		// Rotation: the latch ends in the header's branch, inverted.
		{"rotate eq", "  local.get 1\n  local.get 0\n  eq\n  jnz done", bump, br(OpNe), false},
		{"rotate ne", "  local.get 3\n  local.get 4\n  ne\n  jnz done", flagDone, br(OpEq), false},
		{"rotate lt", "  local.get 0\n  local.get 1\n  lt\n  jnz done", bump, br(OpGeS), false},
		{"rotate gt", "  local.get 1\n  local.get 0\n  gt\n  jnz done", bump, br(OpLeS), false},
		{"rotate le", "  local.get 0\n  local.get 1\n  le\n  jnz done", bump, br(OpGtS), false},
		{"rotate ge", "  local.get 1\n  local.get 0\n  lt\n  jz done", bump, br(OpLtS), false},
		// Increment-and-branch, the counter left and right in the compare.
		{"incbr left", "  local.get 1\n  local.get 0\n  ge\n  jnz done", inc, incBr(OpLtS), false},
		{"incbr right", "  local.get 0\n  local.get 1\n  lt\n  jnz done", inc, incBr(OpLeS), false},
		// acc += 2*(i == 2 | i == 4): the or's result is dup'd.
		{"oreqi dup", "  local.get 1\n  local.get 0\n  ge\n  jnz done",
			"  local.get 1\n  push 2\n  eq\n  local.get 1\n  push 4\n  eq\n  or\n  dup\n  add\n  local.get 2\n  add\n  local.set 2\n" + inc,
			ropOrEqI, false},
		// The add writes the counter from another register: no fusion.
		{"add not in place", "  local.get 1\n  local.get 0\n  ge\n  jnz done", notInPl, incBr(OpLtS), true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			prog := MustAssemble(fmt.Sprintf(fusionLoop, row.header, row.latch))
			c, err := prog.compile()
			if err != nil {
				t.Fatal(err)
			}
			has := slices.ContainsFunc(c.code, func(ins rinstr) bool { return ins.op == row.want })
			if has == row.absent {
				t.Fatalf("register code holds %v: %v, want %v", row.want, has, !row.absent)
			}
			run := func(engine EngineKind, fuel, n int64) (int64, int64, error) {
				inst, err := NewLinker().Instantiate(prog, Config{Engine: engine, Fuel: fuel})
				if err != nil {
					t.Fatal(err)
				}
				v, err := inst.Call("run", n)
				return v, inst.Steps(), err
			}
			for _, n := range []int64{0, 1, 2, 5} {
				wv, ws, werr := run(EngineInterp, 0, n)
				gv, gs, gerr := run(EngineAOT, 0, n)
				if werr != nil || gerr != nil || gv != wv || gs != ws {
					t.Fatalf("run(%d): interp %d in %d steps (%v), aot %d in %d steps (%v)", n, wv, ws, werr, gv, gs, gerr)
				}
			}
			_, need, _ := run(EngineInterp, 0, 5)
			for fuel := int64(0); fuel <= need; fuel++ {
				_, ws, werr := run(EngineInterp, fuel, 5)
				_, gs, gerr := run(EngineAOT, fuel, 5)
				out := errors.Is(werr, ErrFuelExhausted)
				if out != (fuel > 0 && fuel < need) || errors.Is(gerr, ErrFuelExhausted) != out {
					t.Fatalf("fuel %d of %d needed: interp %v, aot %v", fuel, need, werr, gerr)
				}
				if lag := int64(c.maxBlock); out && gs-ws >= lag {
					t.Fatalf("fuel %d: aot ran out after %d steps, interp after %d: more than %d late", fuel, gs, ws, lag)
				}
			}
		})
	}
}
