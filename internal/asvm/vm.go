package asvm

import (
	"encoding/binary"
	"fmt"
	"math"

	"alloystack/internal/mem"
)

// EngineKind selects the execution strategy.
type EngineKind int

// The two engines (see the package comment): the switch interpreter,
// which is the reference semantics, and the compile tier.
const (
	EngineInterp EngineKind = iota
	EngineAOT
)

// String names the engine.
func (k EngineKind) String() string {
	if k == EngineAOT {
		return "aot"
	}
	return "interp"
}

// Config tunes an instance.
type Config struct {
	Engine EngineKind
	// OverheadFactor >= 1 injects calibrated extra work — (factor-1)
	// spin units per source instruction — to model a slower code
	// generator or an interpreted tier. 0 means 1.0, which spins nothing.
	OverheadFactor float64
	// Fuel bounds the source instructions one Call may execute; 0 means
	// the default (1 << 40). The interpreter pays it per step; the AOT
	// engine per basic block, when the block ends, so it can run past
	// the bound by less than one block.
	Fuel int64 //asvet:allow unreachable -- the guest's safety bounds: every tier runs at the defaults; the engine tests and the differential fuzzer tighten them to reach the traps
	// MaxMem bounds linear memory, the declared size and every growth;
	// 0 means 1 GiB.
	MaxMem int64 //asvet:allow unreachable -- see Fuel
	// StackCap bounds the operand stack; 0 means 64k values. The AOT
	// engine holds each call to the depth the analysis proved it can
	// reach rather than the depth it does reach.
	StackCap int //asvet:allow unreachable -- see Fuel
}

// HostFunc is a host function callable from guest code. args are the
// popped stack values (first pushed first); the result is pushed if the
// import is declared with HasResult. A host function reaches its
// per-instance state through vm.Data, so one function value serves every
// instance. It must not keep a view of linear memory (vm.Bytes,
// vm.Memory) past its return: a later mem.grow may move the memory, and
// Release hands the array to the next instance.
type HostFunc func(vm *Instance, args []int64) (int64, error)

// Linker binds import names to host functions, mirroring wasmtime's
// Linker in the paper's multi-language layer. A guest imports a dozen or
// two names, so the bindings are a list searched in order, held inline
// up to linkerInline of them: a linker is one allocation.
type Linker struct {
	funcs  []binding
	data   any
	inline [linkerInline]binding
}

type binding struct {
	name string
	fn   HostFunc
}

// linkerInline covers the WASI slot imports (asstd.WASISlotImports).
const linkerInline = 16

// NewLinker returns an empty linker.
func NewLinker() *Linker {
	l := &Linker{}
	l.funcs = l.inline[:0]
	return l
}

// Define binds name to fn, replacing any previous binding.
func (l *Linker) Define(name string, fn HostFunc) {
	for i := range l.funcs {
		if l.funcs[i].name == name {
			l.funcs[i].fn = fn
			return
		}
	}
	l.funcs = append(l.funcs, binding{name, fn})
}

// lookup returns the function bound to name.
func (l *Linker) lookup(name string) (HostFunc, bool) {
	for i := range l.funcs {
		if l.funcs[i].name == name {
			return l.funcs[i].fn, true
		}
	}
	return nil, false
}

// SetData sets the value every instance the linker instantiates carries
// as Data: the host functions' state, like a wasmtime Store's data.
func (l *Linker) SetData(v any) { l.data = v }

// Instantiate validates prog and builds a runnable instance with its own
// linear memory and globals. Under EngineAOT the first instantiation of a
// program also lowers it to register code, which every later instance
// shares; a program whose stack shape is not static is refused there
// with a *ShapeError. A declared memory larger than cfg.MaxMem is refused
// with ErrOOB before anything is allocated. The memory is a recycled
// array from mem.Take, zeroed before the data segments are written, so
// an instance never sees what an earlier one left; Release parks it
// again.
func (l *Linker) Instantiate(prog *Program, cfg Config) (*Instance, error) {
	var aot *compiled
	var err error
	if cfg.Engine == EngineAOT {
		aot, err = prog.compile()
	} else {
		err = prog.Validate()
	}
	if err != nil {
		return nil, err
	}
	if cfg.Fuel == 0 {
		cfg.Fuel = 1 << 40
	}
	if cfg.MaxMem == 0 {
		cfg.MaxMem = 1 << 30
	}
	if cfg.StackCap == 0 {
		cfg.StackCap = 1 << 16
	}
	if prog.MemSize > cfg.MaxMem {
		return nil, fmt.Errorf("%w: memory %d past limit %d", ErrOOB, prog.MemSize, cfg.MaxMem)
	}
	hosts := make([]HostFunc, len(prog.Imports))
	for i, imp := range prog.Imports {
		fn, ok := l.lookup(imp.Name)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnlinkedHost, imp.Name)
		}
		hosts[i] = fn
	}
	inst := &Instance{
		prog:    prog,
		cfg:     cfg,
		hosts:   hosts,
		data:    l.data,
		globals: make([]int64, prog.Globals),
		mem:     mem.Take(int(prog.MemSize)),
		aot:     aot,
	}
	clear(inst.mem)
	if cfg.OverheadFactor > 1 {
		inst.spinPerStep = int64(math.Round((cfg.OverheadFactor - 1) * (1 << spinShift)))
	}
	if aot != nil {
		inst.arena = make([]int64, aot.arena)
		inst.frames = make([]aotFrame, 0, aot.depth)
	}
	for _, d := range prog.Data {
		copy(inst.mem[d.Offset:], d.Bytes)
	}
	return inst, nil
}

// Instance is an instantiated ASVM module. Not safe for concurrent use;
// the orchestrator gives each function instance its own Instance, exactly
// as each function gets its own WASM store in the paper.
type Instance struct {
	prog    *Program
	cfg     Config
	hosts   []HostFunc
	data    any
	globals []int64
	// mem is linear memory: its length is the guest's memory size, its
	// capacity the recycled array's size class.
	mem []byte

	// The interpreter's shared value stack.
	stack []int64
	// The AOT engine's register code, one arena of frames laid end to
	// end (sized from the analysis, grown only by recursion), the
	// records of suspended callers, and the running frame's own record.
	aot    *compiled
	arena  []int64
	frames []aotFrame
	base   int32
	// below is the arena index of the topmost operand under the running
	// frame (-1: none), which is what a halt over an empty stack yields;
	// operands counts the operand slots in use under it.
	below, operands int32

	steps int64 // source instructions executed, over every Call
	// spinPerStep is (OverheadFactor-1) in 1/2^spinShift units; owed is
	// the fraction of a unit not burned yet, spinFrom the fuel level up
	// to which steps have been paid for and spinMark the level at which
	// the next payment is due. spun counts the units burned and sink
	// keeps that work observable.
	spinPerStep        int64
	owed               int64
	spinFrom, spinMark int64
	spun               int64
	sink               int64
}

// Memory exposes the linear memory for host calls (zero-copy), capped
// at its length so no view reaches the parked capacity behind it.
func (inst *Instance) Memory() []byte { return inst.mem[:len(inst.mem):len(inst.mem)] }

// Data returns the value the instance's linker was given by SetData.
func (inst *Instance) Data() any { return inst.data }

// Release parks the instance's linear memory for the next instance to
// take (mem.Park). Call it once the instance and every view of its
// memory are done with; afterwards the instance has no memory, so a
// Call traps on its first access instead of reading another instance's
// data. Releasing twice is a no-op.
func (inst *Instance) Release() {
	mem.Park(inst.mem)
	inst.mem = nil
}

// Steps reports the number of guest instructions executed.
func (inst *Instance) Steps() int64 { return inst.steps }

// inBounds reports whether [ptr, ptr+n) lies inside a memory of size
// bytes. It cannot overflow, whatever a guest puts in ptr and n.
func inBounds(ptr, n int64, size int) bool {
	return ptr >= 0 && n >= 0 && n <= int64(size)-ptr
}

func oobErr(what string, addr int64) error {
	return fmt.Errorf("%w: %s @%d", ErrOOB, what, addr)
}

// Bytes returns the guest range [ptr, ptr+n) as a view of linear memory,
// or ErrOOB when any of it lies outside.
func (inst *Instance) Bytes(ptr, n int64) ([]byte, error) {
	if !inBounds(ptr, n, len(inst.mem)) {
		return nil, fmt.Errorf("%w: range @%d+%d", ErrOOB, ptr, n)
	}
	return inst.mem[ptr : ptr+n : ptr+n], nil
}

// ReadString copies a guest (ptr, len) range out of linear memory.
func (inst *Instance) ReadString(ptr, n int64) (string, error) {
	b, err := inst.Bytes(ptr, n)
	return string(b), err
}

// WriteBytes copies host data into guest memory at ptr.
func (inst *Instance) WriteBytes(ptr int64, b []byte) error {
	dst, err := inst.Bytes(ptr, int64(len(b)))
	copy(dst, b)
	return err
}

// grow extends linear memory by extra zeroed bytes (OpMemGrow): in
// place while the array's capacity lasts, else into an array twice as
// large, or as large as needed, within MaxMem (the class that fits;
// above the parked classes, an exact array), parking the outgrown one.
func (inst *Instance) grow(extra int64) error {
	if extra < 0 || extra > inst.cfg.MaxMem-int64(len(inst.mem)) {
		return fmt.Errorf("%w: grow %d past limit %d", ErrOOB, extra, inst.cfg.MaxMem)
	}
	old, n := len(inst.mem), len(inst.mem)+int(extra)
	if n <= cap(inst.mem) {
		inst.mem = inst.mem[:n]
	} else {
		next := mem.Take(max(n, min(2*cap(inst.mem), int(inst.cfg.MaxMem))))[:n]
		copy(next, inst.mem)
		mem.Park(inst.mem)
		inst.mem = next
	}
	clear(inst.mem[old:])
	return nil
}

// memCopy moves n bytes from src to dst inside linear memory (OpMemCopy).
func (inst *Instance) memCopy(dst, src, n int64) error {
	if !inBounds(dst, n, len(inst.mem)) || !inBounds(src, n, len(inst.mem)) {
		return fmt.Errorf("%w: memcopy dst=%d src=%d n=%d", ErrOOB, dst, src, n)
	}
	copy(inst.mem[dst:dst+n], inst.mem[src:src+n])
	return nil
}

// frame is one call-stack entry.
type frame struct {
	fn     int
	pc     int
	locals []int64
}

const maxCallDepth = 512

// Call runs the named function with args and returns its result (0 if
// the function declares no result).
func (inst *Instance) Call(name string, args ...int64) (int64, error) {
	fi, err := inst.prog.FuncIndex(name)
	if err != nil {
		return 0, err
	}
	f := &inst.prog.Funcs[fi]
	if len(args) != f.NArgs {
		return 0, fmt.Errorf("asvm: %s wants %d args, got %d", name, f.NArgs, len(args))
	}
	// top is the value the program left when it stopped, by return or by
	// halt, if it left one.
	var top int64
	var has bool
	before := inst.steps
	inst.spinStart(inst.cfg.Fuel)
	if inst.aot != nil {
		top, has, err = inst.callAOT(fi, args)
	} else {
		inst.stack = append(inst.stack[:0], args...)
		err = inst.run(fi)
		if n := len(inst.stack); n > 0 {
			top, has = inst.stack[n-1], true
		}
	}
	inst.spinTo(inst.cfg.Fuel - (inst.steps - before))
	switch {
	case err != nil:
		return 0, err
	case f.Results == 0:
		return 0, nil
	case !has:
		return 0, ErrStackUnder
	}
	return top, nil
}

// push/pop helpers operating on the shared value stack.
func (inst *Instance) push(v int64) error {
	if len(inst.stack) >= inst.cfg.StackCap {
		return ErrStackOver
	}
	inst.stack = append(inst.stack, v)
	return nil
}

func (inst *Instance) pop() (int64, error) {
	n := len(inst.stack)
	if n == 0 {
		return 0, ErrStackUnder
	}
	v := inst.stack[n-1]
	inst.stack = inst.stack[:n-1]
	return v, nil
}

func (inst *Instance) pop2() (a, b int64, err error) {
	if b, err = inst.pop(); err != nil {
		return
	}
	a, err = inst.pop()
	return
}

// newFrame pops the callee's arguments into fresh locals.
func (inst *Instance) newFrame(fi int) (*frame, error) {
	f := &inst.prog.Funcs[fi]
	locals := make([]int64, f.NLocals)
	for i := f.NArgs - 1; i >= 0; i-- {
		v, err := inst.pop()
		if err != nil {
			return nil, err
		}
		locals[i] = v
	}
	return &frame{fn: fi, locals: locals}, nil
}

// overheadSpin does units of dummy work, modelling a less efficient code
// generator. The returned value is stored into a per-instance sink to
// defeat dead-code elimination.
func overheadSpin(units int64) int64 {
	var acc int64
	for i := int64(0); i < units; i++ {
		acc += i
	}
	return acc
}

// Spin units are owed in 1/2^spinShift fractions of (factor-1) per
// source step, and paid every spinStride steps. Both engines find out
// that a payment is due with the comparison they make anyway for fuel:
// spinMark is the fuel level of the next payment, and 0 — fuel
// exhaustion only — when the factor is 1.
const (
	spinShift  = 10
	spinStride = 256
)

// spinStart arms the spin accounting for a Call starting with fuel; the
// Call ends it with a last spinTo.
func (inst *Instance) spinStart(fuel int64) {
	inst.spinFrom, inst.spinMark = fuel, 0
	if inst.spinPerStep != 0 {
		inst.spinMark = max(fuel-spinStride, 0)
	}
}

// spinTo pays for the steps run since the last payment, fuel having
// dropped to the given level, and burns the whole units owed.
func (inst *Instance) spinTo(fuel int64) {
	owed := inst.owed + (inst.spinFrom-fuel)*inst.spinPerStep
	units := owed >> spinShift
	inst.sink += overheadSpin(units)
	inst.spun += units
	inst.owed = owed & (1<<spinShift - 1)
	inst.spinFrom = fuel
	if inst.spinMark > 0 {
		inst.spinMark = max(fuel-spinStride, 0)
	}
}

// run interprets function fi until it returns: the reference engine.
func (inst *Instance) run(fi int) error {
	fr, err := inst.newFrame(fi)
	if err != nil {
		return err
	}
	callStack := make([]*frame, 0, 16)
	callStack = append(callStack, fr)

	fuel := inst.cfg.Fuel
	for len(callStack) > 0 {
		fr := callStack[len(callStack)-1]
		code := inst.prog.Funcs[fr.fn].Code
		if fr.pc >= len(code) {
			// Fall off the end: implicit return.
			callStack = callStack[:len(callStack)-1]
			continue
		}
		ins := code[fr.pc]
		fr.pc++
		inst.steps++
		// Fuel is paid on every step, like bytecode dispatch.
		fuel--
		if fuel < inst.spinMark {
			if fuel < 0 {
				return ErrFuelExhausted
			}
			inst.spinTo(fuel)
		}

		switch ins.Op {
		case OpNop:
		case OpPush:
			if err := inst.push(ins.Arg); err != nil {
				return err
			}
		case OpDrop:
			if _, err := inst.pop(); err != nil {
				return err
			}
		case OpDup:
			v, err := inst.pop()
			if err != nil {
				return err
			}
			inst.push(v)
			if err := inst.push(v); err != nil {
				return err
			}
		case OpSwap:
			a, b, err := inst.pop2()
			if err != nil {
				return err
			}
			inst.push(b)
			inst.push(a)
		case OpLocalGet:
			if err := inst.push(fr.locals[ins.Arg]); err != nil {
				return err
			}
		case OpLocalSet:
			v, err := inst.pop()
			if err != nil {
				return err
			}
			fr.locals[ins.Arg] = v
		case OpGlobalGet:
			if err := inst.push(inst.globals[ins.Arg]); err != nil {
				return err
			}
		case OpGlobalSet:
			v, err := inst.pop()
			if err != nil {
				return err
			}
			inst.globals[ins.Arg] = v
		case OpAdd, OpSub, OpMul, OpDivS, OpRemS, OpAnd, OpOr, OpXor, OpShl, OpShrS,
			OpEq, OpNe, OpLtS, OpGtS, OpLeS, OpGeS:
			a, b, err := inst.pop2()
			if err != nil {
				return err
			}
			v, err := binop(ins.Op, a, b)
			if err != nil {
				return err
			}
			if err := inst.push(v); err != nil {
				return err
			}
		case OpJmp:
			fr.pc = int(ins.Arg)
		case OpJz:
			c, err := inst.pop()
			if err != nil {
				return err
			}
			if c == 0 {
				fr.pc = int(ins.Arg)
			}
		case OpJnz:
			c, err := inst.pop()
			if err != nil {
				return err
			}
			if c != 0 {
				fr.pc = int(ins.Arg)
			}
		case OpCall:
			if len(callStack) >= maxCallDepth {
				return ErrCallDepth
			}
			nf, err := inst.newFrame(int(ins.Arg))
			if err != nil {
				return err
			}
			callStack = append(callStack, nf)
		case OpHost:
			imp := inst.prog.Imports[ins.Arg]
			args := make([]int64, imp.Arity)
			for i := imp.Arity - 1; i >= 0; i-- {
				v, err := inst.pop()
				if err != nil {
					return err
				}
				args[i] = v
			}
			res, err := inst.hosts[ins.Arg](inst, args)
			if err != nil {
				return fmt.Errorf("asvm: host %s: %w", imp.Name, err)
			}
			if imp.HasResult {
				if err := inst.push(res); err != nil {
					return err
				}
			}
		case OpRet:
			callStack = callStack[:len(callStack)-1]
		case OpLoad8U:
			addr, err := inst.pop()
			if err != nil {
				return err
			}
			if !inBounds(addr, 1, len(inst.mem)) {
				return oobErr("load8", addr)
			}
			inst.push(int64(inst.mem[addr]))
		case OpLoad64:
			addr, err := inst.pop()
			if err != nil {
				return err
			}
			if !inBounds(addr, 8, len(inst.mem)) {
				return oobErr("load64", addr)
			}
			inst.push(int64(binary.LittleEndian.Uint64(inst.mem[addr:])))
		case OpStore8:
			addr, v, err := inst.pop2()
			if err != nil {
				return err
			}
			if !inBounds(addr, 1, len(inst.mem)) {
				return oobErr("store8", addr)
			}
			inst.mem[addr] = byte(v)
		case OpStore64:
			addr, v, err := inst.pop2()
			if err != nil {
				return err
			}
			if !inBounds(addr, 8, len(inst.mem)) {
				return oobErr("store64", addr)
			}
			binary.LittleEndian.PutUint64(inst.mem[addr:], uint64(v))
		case OpMemSize:
			inst.push(int64(len(inst.mem)))
		case OpMemGrow:
			extra, err := inst.pop()
			if err != nil {
				return err
			}
			old := int64(len(inst.mem))
			if err := inst.grow(extra); err != nil {
				return err
			}
			inst.push(old)
		case OpMemCopy:
			n, err := inst.pop()
			if err != nil {
				return err
			}
			dst, src, err := inst.pop2()
			if err != nil {
				return err
			}
			if err := inst.memCopy(dst, src, n); err != nil {
				return err
			}
		case OpHalt:
			return nil
		default:
			return fmt.Errorf("asvm: bad opcode %v", ins.Op)
		}
	}
	return nil
}

// binop applies an arithmetic or comparison operator.
func binop(op Op, a, b int64) (int64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDivS:
		if b == 0 {
			return 0, ErrDivZero
		}
		return a / b, nil
	case OpRemS:
		if b == 0 {
			return 0, ErrDivZero
		}
		return a % b, nil
	case OpAnd:
		return a & b, nil
	case OpOr:
		return a | b, nil
	case OpXor:
		return a ^ b, nil
	case OpShl:
		return a << (uint64(b) & 63), nil
	case OpShrS:
		return a >> (uint64(b) & 63), nil
	case OpEq:
		return b2i(a == b), nil
	case OpNe:
		return b2i(a != b), nil
	case OpLtS:
		return b2i(a < b), nil
	case OpGtS:
		return b2i(a > b), nil
	case OpLeS:
		return b2i(a <= b), nil
	case OpGeS:
		return b2i(a >= b), nil
	}
	return 0, fmt.Errorf("asvm: not a binop: %v", op)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
