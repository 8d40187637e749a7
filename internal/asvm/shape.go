package asvm

import "fmt"

// shape.go is the one stack-shape analysis in the repository: the
// leaders-and-depth dataflow that proves a function's operand stack has
// a single depth at every instruction. scan.Verify reports its verdict
// at workflow admission; the AOT engine's lowering (compile.go) relies
// on the same result to turn stack slot d into frame register NLocals+d.

// ShapeKind says why a function has no static stack shape.
type ShapeKind int

// The ways a function can fail the analysis.
const (
	// ShapeBadJump: a branch targets an index outside the function.
	ShapeBadJump ShapeKind = iota
	// ShapeUnderflow: an instruction pops more than any path pushed.
	ShapeUnderflow
	// ShapeJoin: two paths reach one instruction with different depths.
	ShapeJoin
	// ShapeLeak: a return's depth disagrees with the declared results.
	ShapeLeak
)

// ShapeError is the typed refusal of a program whose stack shape is not
// static. It wraps ErrValidation, so an engine that meets one reports a
// validation failure like any other.
type ShapeError struct {
	Kind ShapeKind
	// Detail names the function, the instruction and the depths involved.
	Detail string
}

func (e *ShapeError) Error() string { return ErrValidation.Error() + ": " + e.Detail }

// Unwrap makes errors.Is(err, ErrValidation) hold.
func (e *ShapeError) Unwrap() error { return ErrValidation }

func shapeErr(kind ShapeKind, format string, args ...any) *ShapeError {
	return &ShapeError{Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// FuncShape is what the analysis proves about one function.
type FuncShape struct {
	// Depth[pc] is the operand-stack depth on entry to instruction pc,
	// the same on every path that reaches it; -1 where no path does.
	Depth []int32
	// Leader[pc] marks the first instruction of a basic block: the
	// entry, every branch target, and every instruction after a branch,
	// return or halt.
	Leader []bool
	// Blocks counts the leaders.
	Blocks int
	// MaxStack is the deepest operand stack any path reaches.
	MaxStack int
}

// stackEffect returns how many values ins pops and pushes. Branches,
// returns and halts are handled by the dataflow walk itself.
func stackEffect(prog *Program, ins Instr) (pops, pushes int) {
	switch ins.Op {
	case OpPush, OpLocalGet, OpGlobalGet, OpMemSize:
		return 0, 1
	case OpDrop, OpLocalSet, OpGlobalSet, OpJz, OpJnz:
		return 1, 0
	case OpDup:
		return 1, 2
	case OpSwap:
		return 2, 2
	case OpAdd, OpSub, OpMul, OpDivS, OpRemS, OpAnd, OpOr, OpXor, OpShl, OpShrS,
		OpEq, OpNe, OpLtS, OpGtS, OpLeS, OpGeS:
		return 2, 1
	case OpCall:
		callee := &prog.Funcs[ins.Arg]
		return callee.NArgs, callee.Results
	case OpHost:
		imp := prog.Imports[ins.Arg]
		if imp.HasResult {
			return imp.Arity, 1
		}
		return imp.Arity, 0
	case OpLoad8U, OpLoad64, OpMemGrow:
		return 1, 1
	case OpStore8, OpStore64:
		return 2, 0
	case OpMemCopy:
		return 3, 0
	}
	return 0, 0 // nop, jmp, ret, halt
}

// StackShape runs the worklist dataflow over function fi of a program
// that passed Validate: basic blocks from branch leaders, one abstract
// stack depth per block entry, underflow, join-shape and return-balance
// checks along the way. A non-nil error is a *ShapeError.
func StackShape(prog *Program, fi int) (*FuncShape, error) {
	f := &prog.Funcs[fi]
	n := len(f.Code)
	sh := &FuncShape{Depth: make([]int32, n), Leader: make([]bool, n)}
	for pc := range sh.Depth {
		sh.Depth[pc] = -1
	}
	if n == 0 {
		if f.Results != 0 {
			return nil, shapeErr(ShapeLeak, "%s falls off the end with stack depth 0, declared results %d", f.Name, f.Results)
		}
		return sh, nil
	}
	sh.Leader[0] = true
	for pc, ins := range f.Code {
		switch ins.Op {
		case OpJmp, OpJz, OpJnz:
			sh.Leader[ins.Arg] = true
			fallthrough
		case OpRet, OpHalt:
			if pc+1 < n {
				sh.Leader[pc+1] = true
			}
		}
	}
	for _, l := range sh.Leader {
		if l {
			sh.Blocks++
		}
	}

	work := []int{0}
	sh.Depth[0] = 0 // arguments live in locals, not on the stack
	flow := func(from, target, depth int) error {
		if have := int(sh.Depth[target]); have >= 0 {
			if have != depth {
				return shapeErr(ShapeJoin, "%s+%d joins +%d with depth %d, previously %d",
					f.Name, from, target, depth, have)
			}
			return nil
		}
		sh.Depth[target] = int32(depth)
		work = append(work, target)
		return nil
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		depth := int(sh.Depth[pc])
		for open := true; open; pc++ {
			ins := f.Code[pc]
			sh.Depth[pc] = int32(depth)
			pops, pushes := stackEffect(prog, ins)
			if depth < pops {
				return nil, shapeErr(ShapeUnderflow, "%s+%d %v needs %d value(s), stack has %d",
					f.Name, pc, ins.Op, pops, depth)
			}
			depth += pushes - pops
			if depth > sh.MaxStack {
				sh.MaxStack = depth
			}
			switch ins.Op {
			case OpJmp, OpJz, OpJnz:
				if err := flow(pc, int(ins.Arg), depth); err != nil {
					return nil, err
				}
				open = ins.Op != OpJmp
			case OpRet:
				if depth != f.Results {
					return nil, shapeErr(ShapeLeak, "%s+%d returns with stack depth %d, declared results %d",
						f.Name, pc, depth, f.Results)
				}
				open = false
			case OpHalt:
				// Halt aborts the whole program; no frame is resumed, so
				// no balance obligation.
				open = false
			}
			if !open {
				break
			}
			switch next := pc + 1; {
			case next == n:
				// Falling off the end is an implicit return.
				if depth != f.Results {
					return nil, shapeErr(ShapeLeak, "%s falls off the end with stack depth %d, declared results %d",
						f.Name, depth, f.Results)
				}
				open = false
			case sh.Leader[next]:
				if err := flow(pc, next, depth); err != nil {
					return nil, err
				}
				open = false
			}
		}
	}
	return sh, nil
}
