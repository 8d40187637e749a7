// Package asvm implements ASVM, a stack-machine bytecode runtime that
// stands in for the WASM runtimes of the paper (Wasmtime inside
// AlloyStack, WAVM inside Faasm). Guest functions for the C and Python
// benchmark tiers are written in ASVM assembly, assembled to bytecode,
// and executed by one of two engines:
//
//   - the interpreter engine (vm.go): one switch dispatch per bytecode
//     instruction over a shared value stack, every push and pop checked,
//     fuel paid per step. It is the reference semantics: the differential
//     fuzz target holds the other engine to it.
//   - the AOT engine (compile.go, exec.go): on the first instantiation of
//     a Program its verified bytecode is lowered once to register code —
//     operand-stack slot d becomes frame register NLocals+d, which the
//     stack-shape analysis (shape.go) makes sound by proving one depth per
//     instruction — with fused compare-and-branch, local-with-immediate
//     and address-plus-offset instructions, fuel and Steps charged once
//     per basic block, and one frame arena per instance. On linux/amd64
//     without -race the same step emits that register code as x86-64
//     machine code (x86.go), which a checker proves safe before it may
//     run (x86check.go) and native.go runs; every other build runs the
//     register code on the register engine (exec.go). This is the
//     analogue of ahead-of-time compiled WASM, and every guest tier runs
//     on it.
//
// What separates the tiers is modelled, not structural: the paper's §8.5
// gap between Wasmtime (Cranelift) and WAVM (LLVM), and the Python
// tier's interpretive slowness, are reproduced by Config.OverheadFactor,
// which spins (factor-1) base steps' worth per source instruction. Callers
// scale the factor by their run's CostScale, so a run with injected cost
// switched off executes the bare engine.
// Guests reach the outside world only through host calls bound by a
// Linker, mirroring how wasmtime's Linker connects WASI imports to
// as-std (§7.2): an ASVM guest cannot bypass its host interface, which is
// the isolation property the paper's threat model needs from WASM.
package asvm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Op is an ASVM opcode.
type Op uint8

// The instruction set. Stack effects are written [before] -> [after].
const (
	OpNop Op = iota

	// Constants and stack shuffling.
	OpPush // [] -> [imm]
	OpDrop // [a] -> []
	OpDup  // [a] -> [a a]
	OpSwap // [a b] -> [b a]

	// Locals and globals (Arg = index).
	OpLocalGet
	OpLocalSet
	OpGlobalGet
	OpGlobalSet

	// Integer arithmetic (64-bit signed).
	OpAdd  // [a b] -> [a+b]
	OpSub  // [a b] -> [a-b]
	OpMul  // [a b] -> [a*b]
	OpDivS // [a b] -> [a/b], traps on b==0
	OpRemS // [a b] -> [a%b], traps on b==0
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShrS

	// Comparisons push 1 or 0.
	OpEq
	OpNe
	OpLtS
	OpGtS
	OpLeS
	OpGeS

	// Control flow (Arg = instruction index within the function).
	OpJmp
	OpJz  // [c] -> [], jump if c == 0
	OpJnz // [c] -> [], jump if c != 0

	// Calls. OpCall's Arg is a function index resolved at link time;
	// OpHost's Arg is an import index.
	OpCall
	OpHost
	OpRet

	// Linear memory (addresses are byte offsets; bounds-checked).
	OpLoad8U  // [addr] -> [zero-extended byte]
	OpLoad64  // [addr] -> [little-endian u64]
	OpStore8  // [addr v] -> []
	OpStore64 // [addr v] -> []
	OpMemSize // [] -> [bytes]
	OpMemGrow // [extraBytes] -> [oldSize], traps past limit
	OpMemCopy // [dst src n] -> []

	OpHalt // stop the program with top-of-stack as exit value
)

var opNames = map[Op]string{
	OpNop: "nop", OpPush: "push", OpDrop: "drop", OpDup: "dup", OpSwap: "swap",
	OpLocalGet: "local.get", OpLocalSet: "local.set",
	OpGlobalGet: "global.get", OpGlobalSet: "global.set",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDivS: "div", OpRemS: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShrS: "shr",
	OpEq: "eq", OpNe: "ne", OpLtS: "lt", OpGtS: "gt", OpLeS: "le", OpGeS: "ge",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz",
	OpCall: "call", OpHost: "hostcall", OpRet: "ret",
	OpLoad8U: "load8", OpLoad64: "load64", OpStore8: "store8", OpStore64: "store64",
	OpMemSize: "mem.size", OpMemGrow: "mem.grow", OpMemCopy: "mem.copy",
	OpHalt: "halt",
}

// String names the opcode.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one decoded instruction.
type Instr struct {
	Op  Op
	Arg int64
}

// Func is one guest function.
type Func struct {
	Name    string
	NArgs   int // locals [0, NArgs) are populated from the stack at call
	NLocals int // total locals including arguments
	Results int // 0 or 1
	Code    []Instr
}

// Import declares a host function the program needs, by name and arity.
type Import struct {
	Name  string
	Arity int // stack arguments popped
	// HasResult reports whether the host call pushes a result.
	HasResult bool
}

// Program is a validated ASVM module: functions, imports, globals, and
// an initial linear memory image.
type Program struct {
	Funcs   []Func
	Imports []Import
	Globals int
	// MemSize is the initial linear memory size in bytes.
	MemSize int64
	// Data segments copied into memory at instantiation.
	Data []DataSegment

	indexOnce sync.Once
	funcIndex map[string]int

	// The AOT engine's lowering of this program, built by the first
	// EngineAOT instantiation and shared, read-only, by every instance.
	aotOnce sync.Once
	aot     *compiled
	aotErr  error
	lowered atomic.Bool
}

// DataSegment is a static initialiser for linear memory.
type DataSegment struct {
	Offset int64
	Bytes  []byte
}

// Validation and runtime errors.
var (
	ErrNoFunc        = errors.New("asvm: function not found")
	ErrValidation    = errors.New("asvm: validation failed")
	ErrStackUnder    = errors.New("asvm: value stack underflow")
	ErrStackOver     = errors.New("asvm: value stack overflow")
	ErrOOB           = errors.New("asvm: memory access out of bounds")
	ErrDivZero       = errors.New("asvm: integer divide by zero")
	ErrFuelExhausted = errors.New("asvm: fuel exhausted")
	ErrBadLocal      = errors.New("asvm: local index out of range")
	ErrBadGlobal     = errors.New("asvm: global index out of range")
	ErrUnlinkedHost  = errors.New("asvm: host import not linked")
	ErrCallDepth     = errors.New("asvm: call depth exceeded")
	ErrHalted        = errors.New("asvm: program halted")
)

// FuncIndex returns the index of the named function. Safe for concurrent
// use: one Program is shared by every instance of a guest function.
func (p *Program) FuncIndex(name string) (int, error) {
	p.buildIndex()
	i, ok := p.funcIndex[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoFunc, name)
	}
	return i, nil
}

func (p *Program) buildIndex() {
	p.indexOnce.Do(func() {
		p.funcIndex = make(map[string]int, len(p.Funcs))
		for i, f := range p.Funcs {
			p.funcIndex[f.Name] = i
		}
	})
}

// maxLocals bounds a function's locals: a frame is allocated per call,
// and a guest must not be able to size it without limit.
const maxLocals = 1 << 16

// Validate checks structural invariants: jump targets in range (a
// *ShapeError of kind ShapeBadJump otherwise), local and function indices
// valid, import indices valid. Engines refuse to run unvalidated
// programs, mirroring WASM's validate-before-execute rule.
func (p *Program) Validate() error {
	p.buildIndex()
	if len(p.funcIndex) != len(p.Funcs) {
		return fmt.Errorf("%w: duplicate function name", ErrValidation)
	}
	// Branch targets first, across every function, so a bad jump is
	// reported as one whatever else is wrong with the program.
	for _, f := range p.Funcs {
		for pc, ins := range f.Code {
			switch ins.Op {
			case OpJmp, OpJz, OpJnz:
				if ins.Arg < 0 || ins.Arg >= int64(len(f.Code)) {
					return shapeErr(ShapeBadJump, "%s+%d: jump target %d out of range (code length %d)",
						f.Name, pc, ins.Arg, len(f.Code))
				}
			}
		}
	}
	for _, f := range p.Funcs {
		if f.NArgs < 0 || f.NLocals < f.NArgs || f.NLocals > maxLocals {
			return fmt.Errorf("%w: %s: want args %d <= locals %d <= %d", ErrValidation, f.Name, f.NArgs, f.NLocals, maxLocals)
		}
		if f.Results < 0 || f.Results > 1 {
			return fmt.Errorf("%w: %s: results must be 0 or 1", ErrValidation, f.Name)
		}
		for pc, ins := range f.Code {
			switch ins.Op {
			case OpLocalGet, OpLocalSet:
				if ins.Arg < 0 || ins.Arg >= int64(f.NLocals) {
					return fmt.Errorf("%w: %s+%d: local %d out of range",
						ErrValidation, f.Name, pc, ins.Arg)
				}
			case OpGlobalGet, OpGlobalSet:
				if ins.Arg < 0 || ins.Arg >= int64(p.Globals) {
					return fmt.Errorf("%w: %s+%d: global %d out of range",
						ErrValidation, f.Name, pc, ins.Arg)
				}
			case OpCall:
				if ins.Arg < 0 || ins.Arg >= int64(len(p.Funcs)) {
					return fmt.Errorf("%w: %s+%d: call target %d out of range",
						ErrValidation, f.Name, pc, ins.Arg)
				}
			case OpHost:
				if ins.Arg < 0 || ins.Arg >= int64(len(p.Imports)) {
					return fmt.Errorf("%w: %s+%d: import %d out of range",
						ErrValidation, f.Name, pc, ins.Arg)
				}
			}
		}
	}
	if p.MemSize < 0 || p.Globals < 0 {
		return fmt.Errorf("%w: negative memory size or global count", ErrValidation)
	}
	for _, imp := range p.Imports {
		if imp.Arity < 0 {
			return fmt.Errorf("%w: import %s: negative arity", ErrValidation, imp.Name)
		}
	}
	for _, d := range p.Data {
		if d.Offset < 0 || int64(len(d.Bytes)) > p.MemSize-d.Offset {
			return fmt.Errorf("%w: data segment [%d,%d) outside memory %d",
				ErrValidation, d.Offset, d.Offset+int64(len(d.Bytes)), p.MemSize)
		}
	}
	return nil
}
