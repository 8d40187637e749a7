package asvm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"alloystack/internal/mem"
)

// The differential oracle: the switch interpreter is the reference
// semantics and the register engine must match it on every program whose
// stack shape is static — result, error class, final memory, globals,
// the sequence of host calls with their arguments, and on success the
// step count. Native code must match the register engine exactly, steps
// included, whatever the outcome; on a build without the native tier
// the checker must still accept the code the emitter would run.
// Programs come from three places: a generator of shape-valid programs
// (genProgram), the committed corpus under testdata/fuzz (the eleven
// workload guests and the three overflow probes, as assembly), and
// whatever the fuzzer mutates out of either.

// errHostFail is what the recording host returns when it decides to fail.
var errHostFail = errors.New("recording host: injected failure")

// errClasses is the set both engines' errors are classified against.
var errClasses = []error{
	ErrStackUnder, ErrStackOver, ErrOOB, ErrDivZero, ErrFuelExhausted,
	ErrCallDepth, ErrNoFunc, errHostFail,
}

func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range errClasses {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// outcome is everything observable about one run.
type outcome struct {
	res     int64
	err     error
	mem     []byte
	globals []int64
	trace   []int64
	steps   int64
}

// recordingLinker binds every import of prog to a host function that
// logs its index, the memory size it sees and its arguments, flips a
// guest byte when its first argument is an address, and derives its
// result — or a failure — from the arguments alone.
func recordingLinker(prog *Program, trace *[]int64) *Linker {
	l := NewLinker()
	for i, imp := range prog.Imports {
		i := int64(i)
		l.Define(imp.Name, func(vm *Instance, args []int64) (int64, error) {
			*trace = append(*trace, i, int64(len(vm.Memory())))
			*trace = append(*trace, args...)
			h := uint64(i)*0x9E3779B97F4A7C15 + 1
			for _, a := range args {
				h = (h ^ uint64(a)) * 0x100000001B3
			}
			h ^= h >> 29
			if h%29 == 0 {
				return 0, errHostFail
			}
			if len(args) > 0 {
				if b, err := vm.Bytes(args[0], 1); err == nil {
					b[0] ^= byte(h)
				}
			}
			return int64(h%23) - 3, nil
		})
	}
	return l
}

const (
	fuzzFuel   = 50_000
	fuzzMaxMem = 2 << 20
)

// arm is one engine the oracle runs.
type arm struct {
	name   string
	engine EngineKind
	// register runs the register engine even where the program has
	// native code: the unexported hook to the middle engine.
	register bool
}

var (
	armInterp   = arm{"interp", EngineInterp, false}
	armRegister = arm{"register", EngineAOT, true}
	armNative   = arm{"native", EngineAOT, false}
)

// registerOnly makes inst run the register engine: it gets its own copy
// of the program's compiled form, without the machine code.
func registerOnly(inst *Instance) {
	c := *inst.aot
	c.native = nil
	inst.aot = &c
}

// runOn runs prog once on engine and releases the instance. Recycled,
// it runs on memory a previous user left dirty: every array class from
// the program's declared memory up to recycleDirtyMax is taken, filled
// with a non-zero pattern and parked first, so the instance and the
// classes it may grow into start from those arrays.
func runOn(a arm, prog *Program, entry string, args []int64, fuel int64, recycled bool) (outcome, error) {
	var o outcome
	if recycled {
		for n := max(prog.MemSize, mem.MinParkedArray); n <= recycleDirtyMax; n *= 2 {
			b := mem.Take(int(n))
			b = b[:cap(b)]
			for i := range b {
				b[i] = byte(i) | 0x80
			}
			mem.Park(b)
		}
	}
	inst, err := recordingLinker(prog, &o.trace).Instantiate(prog, Config{Engine: a.engine, Fuel: fuel, MaxMem: fuzzMaxMem})
	if err != nil {
		return o, err
	}
	if a.register {
		registerOnly(inst)
	}
	defer inst.Release()
	o.res, o.err = inst.Call(entry, args...)
	o.mem, o.globals, o.steps = bytes.Clone(inst.mem), inst.globals, inst.steps
	return o, nil
}

// recycleDirtyMax bounds the classes the recycled arm dirties: the
// generator's memories and the first growths past them.
const recycleDirtyMax = 64 << 10

// checkEnginesAgree runs prog on the three engines and fails t on any
// difference the contract does not allow. It reports whether the program
// could be run at all: one without a static stack shape is refused by
// the AOT engine and there is nothing to compare.
func checkEnginesAgree(t *testing.T, prog *Program, entry string, args []int64, fuel int64) bool {
	t.Helper()
	want, err := runOn(armInterp, prog, entry, args, fuel, false)
	if err != nil {
		return false
	}
	got, err := runOn(armRegister, prog, entry, args, fuel, false)
	if err != nil {
		var se *ShapeError
		if !errors.As(err, &se) || !errors.Is(err, ErrValidation) {
			t.Fatalf("AOT refused a program the interpreter took, and not for its shape: %v", err)
		}
		return false
	}
	nat, err := runOn(armNative, prog, entry, args, fuel, false)
	if err != nil {
		t.Fatalf("native code refused for a program the register engine took: %v\n%s", err, Disassemble(prog))
	}
	if !nativeTier {
		// No native code runs here, so hold the checker to what would.
		if buf, off, at, err := emitNative(prog.aot); err != nil {
			t.Fatalf("emit: %v\n%s", err, Disassemble(prog))
		} else if err := checkNative(buf, off, at, prog.aot, prog.Globals); err != nil {
			t.Fatalf("the checker refused emitted code: %v\n%s", err, Disassemble(prog))
		}
	}
	fail := func(format string, a ...any) {
		t.Helper()
		t.Fatalf("engines disagree: %s\ninterp:   %d, %v (steps %d)\nregister: %d, %v (steps %d)\nnative:   %d, %v (steps %d)\nentry %s%v\n%s",
			fmt.Sprintf(format, a...), want.res, want.err, want.steps, got.res, got.err, got.steps,
			nat.res, nat.err, nat.steps, entry, args, Disassemble(prog))
	}
	// Native code against the register engine: identical, steps and
	// all, however the run ends.
	if d := diff(&nat, &got); d != "" {
		fail("native code vs the register engine: %s", d)
	}
	// The recycled arm: on each engine, an instance over dirty parked
	// arrays must be indistinguishable from the fresh one.
	for _, arm := range []struct {
		arm
		fresh *outcome
	}{{armInterp, &want}, {armRegister, &got}, {armNative, &nat}} {
		rec, err := runOn(arm.arm, prog, entry, args, fuel, true)
		d := ""
		if err != nil {
			d = "refused: " + err.Error()
		} else {
			d = diff(&rec, arm.fresh)
		}
		if d != "" {
			t.Fatalf("%s: a recycled instance differs from a fresh one: %s\nentry %s%v\n%s",
				arm.name, d, entry, args, Disassemble(prog))
		}
	}
	if errors.Is(want.err, ErrFuelExhausted) {
		// The one sanctioned difference: the AOT engine charges a block
		// when it ends, so it runs on for at most maxBlock source
		// instructions — in which it may also meet a trap the
		// interpreter never reached.
		lag := int64(prog.aot.maxBlock)
		switch {
		case errors.Is(got.err, ErrFuelExhausted):
			if got.steps <= fuel || got.steps > fuel+lag {
				fail("fuel ran out after %d steps, want within (%d, %d]", got.steps, fuel, fuel+lag)
			}
		case got.err == nil:
			fail("the interpreter ran out of fuel and the AOT engine finished")
		case got.steps <= fuel-lag:
			fail("trapped %d steps in, more than maxBlock (%d) short of the interpreter's fuel", got.steps, lag)
		}
		if len(got.trace) < len(want.trace) || !slices.Equal(got.trace[:len(want.trace)], want.trace) {
			fail("host calls up to the interpreter's exhaustion differ")
		}
		return true
	}
	switch {
	case errClass(got.err) != errClass(want.err):
		fail("error class")
	case want.err == nil && got.res != want.res:
		fail("result")
	case want.err == nil && got.steps != want.steps:
		fail("steps on success")
	case !slices.Equal(got.trace, want.trace):
		fail("host-call trace\ninterp   %v\nregister %v", want.trace, got.trace)
	case !bytes.Equal(got.mem, want.mem):
		fail("final memory")
	case !slices.Equal(got.globals, want.globals):
		fail("globals %v vs %v", want.globals, got.globals)
	}
	return true
}

// diff describes how two runs of one program on engines that must agree
// exactly differ, or returns "".
func diff(o, ref *outcome) string {
	switch {
	case o.res != ref.res || errClass(o.err) != errClass(ref.err) || o.steps != ref.steps:
		return fmt.Sprintf("%d, %v (steps %d); want %d, %v (steps %d)", o.res, o.err, o.steps, ref.res, ref.err, ref.steps)
	case !slices.Equal(o.trace, ref.trace):
		return fmt.Sprintf("host-call trace %v; want %v", o.trace, ref.trace)
	case !bytes.Equal(o.mem, ref.mem) || !slices.Equal(o.globals, ref.globals):
		return "final memory or globals differ"
	}
	return ""
}

// interesting are the constants the generator and the argument picker
// draw from: small, boundary and overflow-provoking values.
var interesting = []int64{
	0, 1, 2, 3, 7, 8, 26, 63, 64, 255, 256, -1, -2, -8,
	math.MaxInt64, math.MaxInt64 - 3, math.MinInt64, math.MaxInt32, 1 << 40,
}

// entryArgs picks n arguments for an entry function from seed.
func entryArgs(n int, seed uint64) []int64 {
	rng := rand.New(rand.NewSource(int64(seed)))
	args := make([]int64, n)
	for i := range args {
		if rng.Intn(3) == 0 {
			args[i] = interesting[rng.Intn(len(interesting))]
		} else {
			args[i] = int64(rng.Intn(600))
		}
	}
	return args
}

// progGen builds one random program whose every function has a static
// stack shape by construction: it is assembled from statements (net
// stack effect 0) and expressions (net +1), nested freely, so every
// join is reached with one depth whatever path led there.
type progGen struct {
	rng    *rand.Rand
	prog   *Program
	fi     int // function being generated
	code   []Instr
	depth  int // operand depth at the point of emission
	budget int // instructions left before only leaves are generated
}

func genProgram(rng *rand.Rand) *Program {
	g := &progGen{rng: rng}
	p := &Program{
		MemSize: int64(64 << rng.Intn(7)),
		Globals: rng.Intn(4),
		Imports: []Import{
			{Name: "rec0", Arity: 0, HasResult: true},
			{Name: "rec2", Arity: 2, HasResult: true},
			{Name: "rec3", Arity: 3, HasResult: false},
		},
	}
	if rng.Intn(2) == 0 {
		p.Data = []DataSegment{{Offset: int64(rng.Intn(32)), Bytes: []byte("seeded data segment")}}
	}
	g.prog = p
	// Headers first: a call's stack effect is its callee's signature.
	// Function i calls only functions after it, except the last, which
	// may be the bounded recursion below.
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		nargs := rng.Intn(4)
		p.Funcs = append(p.Funcs, Func{
			Name: fmt.Sprintf("f%d", i), NArgs: nargs, NLocals: nargs + rng.Intn(4), Results: rng.Intn(2),
		})
	}
	p.Funcs[0].Name = "run"
	if rng.Intn(3) == 0 {
		// down(n) = n == 0 ? 0 : down(n-1)+1: deep enough an argument
		// exhausts the call depth, and grows the frame arena on the way.
		down := int64(len(p.Funcs))
		p.Funcs = append(p.Funcs, Func{Name: "down", NArgs: 1, NLocals: 1, Results: 1, Code: []Instr{
			{Op: OpLocalGet}, {Op: OpJnz, Arg: 4},
			{Op: OpPush, Arg: 0}, {Op: OpRet},
			{Op: OpLocalGet}, {Op: OpPush, Arg: 1}, {Op: OpSub}, {Op: OpCall, Arg: down},
			{Op: OpPush, Arg: 1}, {Op: OpAdd}, {Op: OpRet},
		}})
	}
	for i := 0; i < n; i++ {
		g.function(i)
	}
	return p
}

func (g *progGen) function(fi int) {
	g.fi, g.code, g.depth, g.budget = fi, nil, 0, 40+g.rng.Intn(120)
	f := &g.prog.Funcs[fi]
	for n := 1 + g.rng.Intn(5); n > 0; n-- {
		g.stmt(0)
	}
	if f.Results == 1 {
		g.expr(0)
	}
	if f.Results == 1 || g.rng.Intn(2) == 0 {
		g.emit(OpRet, 0)
	} else {
		g.emit(OpNop, 0) // anchors a trailing label; then falls off the end
	}
	f.Code = g.code
}

func (g *progGen) emit(op Op, arg int64) int {
	ins := Instr{Op: op, Arg: arg}
	pops, pushes := stackEffect(g.prog, ins)
	g.depth += pushes - pops
	g.code = append(g.code, ins)
	g.budget--
	return len(g.code) - 1
}

// bind points the branch at index at to the next instruction emitted.
func (g *progGen) bind(at int) { g.code[at].Arg = int64(len(g.code)) }

func (g *progGen) f() *Func { return &g.prog.Funcs[g.fi] }

func (g *progGen) constant() int64 {
	switch g.rng.Intn(4) {
	case 0:
		return interesting[g.rng.Intn(len(interesting))]
	case 1:
		return g.prog.MemSize - int64(g.rng.Intn(10))
	}
	return int64(g.rng.Intn(40))
}

// address pushes an address: usually masked into memory, sometimes raw.
func (g *progGen) address(nest int) {
	g.expr(nest)
	if g.rng.Intn(5) != 0 {
		g.emit(OpPush, (g.prog.MemSize-1)>>uint(g.rng.Intn(3)))
		g.emit(OpAnd, 0)
	}
}

var binops = []Op{OpAdd, OpSub, OpMul, OpDivS, OpRemS, OpAnd, OpOr, OpXor, OpShl, OpShrS,
	OpEq, OpNe, OpLtS, OpGtS, OpLeS, OpGeS}

// call pushes callee's arguments and calls it; it reports whether a
// callee with the wanted result count exists.
func (g *progGen) call(nest, results int) bool {
	var fits []int
	for j := g.fi + 1; j < len(g.prog.Funcs); j++ {
		if g.prog.Funcs[j].Results == results {
			fits = append(fits, j)
		}
	}
	if len(fits) == 0 {
		return false
	}
	j := fits[g.rng.Intn(len(fits))]
	for a := g.prog.Funcs[j].NArgs; a > 0; a-- {
		g.expr(nest)
	}
	g.emit(OpCall, int64(j))
	return true
}

// expr emits code that leaves exactly one more value on the stack.
func (g *progGen) expr(nest int) {
	f := g.f()
	kind := g.rng.Intn(16)
	if nest > 4 || g.budget <= 0 {
		kind = g.rng.Intn(3) // leaves only
	}
	switch kind {
	case 0:
		g.emit(OpPush, g.constant())
	case 1:
		if f.NLocals > 0 {
			g.emit(OpLocalGet, int64(g.rng.Intn(f.NLocals)))
		} else {
			g.emit(OpMemSize, 0)
		}
	case 2:
		if g.prog.Globals > 0 {
			g.emit(OpGlobalGet, int64(g.rng.Intn(g.prog.Globals)))
		} else {
			g.emit(OpPush, g.constant())
		}
	case 3, 4, 5:
		g.expr(nest + 1)
		g.expr(nest + 1)
		g.emit(binops[g.rng.Intn(len(binops))], 0)
	case 6:
		g.address(nest + 1)
		g.emit([]Op{OpLoad8U, OpLoad64}[g.rng.Intn(2)], 0)
	case 7:
		if !g.call(nest+1, 1) {
			g.emit(OpHost, 0) // rec0
		}
	case 8:
		g.expr(nest + 1)
		g.expr(nest + 1)
		g.emit(OpHost, 1) // rec2
	case 9:
		if g.rng.Intn(4) == 0 {
			g.emit(OpPush, g.constant())
		} else {
			g.emit(OpPush, int64(g.rng.Intn(5000)))
		}
		g.emit(OpMemGrow, 0)
	case 10:
		g.expr(nest + 1)
		g.emit(OpDup, 0)
		g.emit(binops[g.rng.Intn(len(binops))], 0)
	case 11:
		g.expr(nest + 1)
		g.expr(nest + 1)
		g.emit(OpSwap, 0)
		g.emit(binops[g.rng.Intn(len(binops))], 0)
	case 12:
		// A statement run with this expression's value already pushed:
		// control flow at a non-zero depth.
		g.expr(nest + 1)
		g.stmt(nest + 1)
	case 13:
		// cond ? a : b, joining one deeper than it forked.
		g.expr(nest + 1)
		toElse := g.emit([]Op{OpJz, OpJnz}[g.rng.Intn(2)], 0)
		g.expr(nest + 1)
		toEnd := g.emit(OpJmp, 0)
		g.depth-- // the else arm starts where the fork left the stack
		g.bind(toElse)
		g.expr(nest + 1)
		g.bind(toEnd)
	case 14:
		// x | (r == k), which the lowering fuses when r is in a register.
		g.expr(nest + 1)
		if f.NLocals > 0 && g.rng.Intn(3) != 0 {
			g.emit(OpLocalGet, int64(g.rng.Intn(f.NLocals)))
		} else {
			g.expr(nest + 1)
		}
		g.emit(OpPush, g.constant())
		g.emit(OpEq, 0)
		g.emit(OpOr, 0)
	default:
		g.emit(OpPush, int64(g.rng.Intn(10)))
	}
}

// stmt emits code with no net stack effect.
func (g *progGen) stmt(nest int) {
	f := g.f()
	kind := g.rng.Intn(16)
	if nest > 4 || g.budget <= 0 {
		kind = 0
	}
	switch kind {
	case 0, 1, 2:
		g.expr(nest + 1)
		switch {
		case f.NLocals > 0 && g.rng.Intn(4) != 0:
			g.emit(OpLocalSet, int64(g.rng.Intn(f.NLocals)))
		case g.prog.Globals > 0 && g.rng.Intn(2) == 0:
			g.emit(OpGlobalSet, int64(g.rng.Intn(g.prog.Globals)))
		default:
			g.emit(OpDrop, 0)
		}
	case 3, 4:
		g.address(nest + 1)
		g.expr(nest + 1)
		g.emit([]Op{OpStore8, OpStore64}[g.rng.Intn(2)], 0)
	case 5:
		g.address(nest + 1)
		g.address(nest + 1)
		if g.rng.Intn(6) == 0 {
			g.emit(OpPush, g.constant())
		} else {
			g.emit(OpPush, int64(g.rng.Intn(24)))
		}
		g.emit(OpMemCopy, 0)
	case 6, 7:
		// if / else
		g.expr(nest + 1)
		toElse := g.emit([]Op{OpJz, OpJnz}[g.rng.Intn(2)], 0)
		g.stmt(nest + 1)
		if g.rng.Intn(2) == 0 {
			toEnd := g.emit(OpJmp, 0)
			g.bind(toElse)
			g.stmt(nest + 1)
			g.bind(toEnd)
		} else {
			g.bind(toElse)
		}
		g.emit(OpNop, 0) // the join is never the end of the function
	case 8, 9:
		// A counted loop over a local; the body may clobber the counter,
		// and then fuel is what ends it.
		if f.NLocals == 0 {
			g.emit(OpNop, 0)
			return
		}
		l := int64(g.rng.Intn(f.NLocals))
		g.emit(OpPush, int64(g.rng.Intn(7)))
		g.emit(OpLocalSet, l)
		head := len(g.code)
		g.emit(OpLocalGet, l)
		g.emit(OpPush, 1)
		g.emit(OpSub, 0)
		g.emit(OpLocalSet, l)
		g.stmt(nest + 1)
		g.emit(OpLocalGet, l)
		if g.rng.Intn(2) == 0 {
			g.emit(OpPush, 0)
			g.emit([]Op{OpGtS, OpNe, OpGeS}[g.rng.Intn(3)], 0)
		}
		g.emit(OpJnz, int64(head))
	case 10:
		if !g.call(nest+1, 0) {
			g.emit(OpNop, 0)
		}
	case 11:
		g.address(nest + 1)
		g.expr(nest + 1)
		g.expr(nest + 1)
		g.emit(OpHost, 2) // rec3
	case 12:
		// An early return, where the stack allows one.
		if g.depth != 0 || g.rng.Intn(3) != 0 {
			g.emit(OpNop, 0)
			return
		}
		skip := g.guard(nest)
		if f.Results == 1 {
			g.expr(nest + 1)
			g.emit(OpRet, 0)
			g.depth--
		} else {
			g.emit(OpRet, 0)
		}
		g.bind(skip)
		g.emit(OpNop, 0)
	case 13:
		// halt, from whatever frame and depth this is, behind a guard.
		if g.rng.Intn(3) != 0 {
			g.emit(OpNop, 0)
			return
		}
		skip := g.guard(nest)
		if g.rng.Intn(2) == 0 {
			g.expr(nest + 1)
			g.emit(OpHalt, 0)
			g.depth--
		} else {
			g.emit(OpHalt, 0)
		}
		g.bind(skip)
		g.emit(OpNop, 0)
	case 14:
		g.while(nest)
	default:
		g.emit(OpNop, 0)
	}
}

// compares are the six comparisons, binops' tail.
var compares = binops[len(binops)-int(nCompares):]

// while emits a loop the lowering rotates: a header holding nothing but
// a compare of the counter (on either side) with a bound, and a latch
// jumping back to it, usually right after adding to the counter in
// place. The exit is mostly the one that ends the loop; when the body
// clobbers the counter, or the branch was flipped, fuel ends it.
func (g *progGen) while(nest int) {
	f := g.f()
	if f.NLocals == 0 {
		g.emit(OpNop, 0)
		return
	}
	l := int64(g.rng.Intn(f.NLocals))
	g.emit(OpPush, int64(g.rng.Intn(7)))
	g.emit(OpLocalSet, l)
	head := len(g.code)
	bound := func() {
		if g.rng.Intn(2) == 0 {
			g.emit(OpLocalGet, int64(g.rng.Intn(f.NLocals)))
		} else {
			g.emit(OpPush, int64(g.rng.Intn(12)))
		}
	}
	op := compares[g.rng.Intn(len(compares))]
	asLeft := op // the compare with the counter on its left
	if g.rng.Intn(2) == 0 {
		g.emit(OpLocalGet, l)
		bound()
	} else {
		bound()
		g.emit(OpLocalGet, l)
		asLeft, _ = mirrored(op)
	}
	g.emit(op, 0)
	// An up-counter's loop ends by exiting when the compare fails for
	// lt, le and ne, and when it holds otherwise.
	onFail := asLeft == OpLtS || asLeft == OpLeS || asLeft == OpNe
	if g.rng.Intn(4) == 0 {
		onFail = !onFail
	}
	exit := g.emit(OpJnz, 0)
	if onFail {
		g.code[exit].Op = OpJz
	}
	g.stmt(nest + 1)
	g.emit(OpLocalGet, l)
	g.emit(OpPush, int64(1+g.rng.Intn(3)))
	g.emit([]Op{OpAdd, OpAdd, OpAdd, OpSub}[g.rng.Intn(4)], 0)
	if g.rng.Intn(4) == 0 {
		g.emit(OpLocalSet, int64(g.rng.Intn(f.NLocals))) // maybe not in place
	} else {
		g.emit(OpLocalSet, l)
	}
	g.emit(OpJmp, int64(head))
	g.bind(exit)
	g.emit(OpNop, 0)
}

// guard emits a condition and a branch over what follows; the caller
// binds the returned branch after the guarded code.
func (g *progGen) guard(nest int) int {
	g.expr(nest + 1)
	return g.emit([]Op{OpJz, OpJnz}[g.rng.Intn(2)], 0)
}

// checkGenerated runs the program genProgram builds from seed.
func checkGenerated(t *testing.T, seed uint64) {
	t.Helper()
	prog := genProgram(rand.New(rand.NewSource(int64(seed))))
	if err := prog.Validate(); err != nil {
		t.Fatalf("seed %d: generator built an invalid program: %v\n%s", seed, err, Disassemble(prog))
	}
	if !checkEnginesAgree(t, prog, "run", entryArgs(prog.Funcs[0].NArgs, seed), fuzzFuel) {
		t.Fatalf("seed %d: generator built a program without a static stack shape\n%s", seed, Disassemble(prog))
	}
}

// TestPropertyEnginesAgree is the tier-1 arm of the oracle: the
// generator on a fixed seed set, so `go test ./...` exercises it without
// -fuzz.
func TestPropertyEnginesAgree(t *testing.T) {
	n := uint64(3000)
	if testing.Short() {
		n = 300
	}
	for seed := uint64(1); seed <= n; seed++ {
		checkGenerated(t, seed)
	}
}

// FuzzEnginesAgree takes a program as assembly, or — when src is empty —
// has the generator build one from seed; seed also picks the entry
// function's arguments. Input that does not assemble, has no static
// stack shape, or is larger than a fuzz iteration should run is skipped.
func FuzzEnginesAgree(f *testing.F) {
	for _, src := range edgeSeeds {
		f.Add(src, uint64(0))
	}
	for seed := uint64(1); seed <= 32; seed++ {
		f.Add("", seed)
		f.Add(Disassemble(genProgram(rand.New(rand.NewSource(int64(seed))))), seed)
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		if src == "" {
			checkGenerated(t, seed)
			return
		}
		prog, err := Assemble(src)
		if err != nil || len(prog.Funcs) == 0 || len(prog.Funcs) > 64 ||
			prog.MemSize > 1<<20 || prog.Globals > 1<<10 {
			t.Skip()
		}
		for _, fn := range prog.Funcs {
			if fn.NLocals > 1<<10 || len(fn.Code) > 1<<12 {
				t.Skip()
			}
		}
		for _, imp := range prog.Imports {
			if imp.Arity > 16 {
				t.Skip()
			}
		}
		entry := &prog.Funcs[0]
		if fi, err := prog.FuncIndex("run"); err == nil {
			entry = &prog.Funcs[fi]
		}
		if !checkEnginesAgree(t, prog, entry.Name, entryArgs(entry.NArgs, seed), fuzzFuel) {
			t.Skip()
		}
	})
}
