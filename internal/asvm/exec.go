package asvm

import (
	"encoding/binary"
	"fmt"
)

// exec.go runs the register code compile.go produces, on every build
// without the native tier and as the oracle native code is held to on
// the one with it (its slow paths serve both). It relies on what
// StackShape proved and the lowering kept: every register index is inside
// its frame, every branch lands on an instruction, every host call finds
// its arguments in consecutive registers. What it still checks at run
// time is what no static pass can know: memory bounds, division by zero,
// fuel, call depth, and the operand budget of StackCap.

// aotFrame is what a call saves to resume its caller: where, and the
// caller's own base, below and operands (see Instance).
type aotFrame struct {
	pc, base, below, operands int32
}

// callAOT runs function fi with args: as native code where the program
// has it (native.go), else on the register engine. The second
// result reports whether the program left a value: a return from a
// function declaring one, or a halt over a non-empty stack.
//
// The dispatch loop keeps only what every instruction touches in local
// variables — code, pc, the frame's registers, fuel — so they stay in
// machine registers; what only memory accesses, calls, returns and host
// calls need lives in the instance.
func (inst *Instance) callAOT(fi int, args []int64) (value int64, has bool, err error) {
	c := inst.aot
	if c.native != nil {
		return inst.callNative(fi, args)
	}
	f := &c.funcs[fi]
	if int(f.maxStack) > inst.cfg.StackCap {
		return 0, false, ErrStackOver
	}
	inst.frames = inst.frames[:0]
	inst.base, inst.operands, inst.below = 0, 0, -1
	r := inst.arena
	copy(r, args)
	clear(r[f.nargs:f.nlocals])

	code := c.code
	fuel := inst.cfg.Fuel
	pc := int(f.entry)
loop:
	for {
		ins := &code[pc]
		pc++
		switch ins.op {
		case ropMovI:
			r[ins.a] = ins.imm
			continue
		case ropMov:
			r[ins.a] = r[ins.b]
			continue
		case ropSwap:
			r[ins.a], r[ins.b] = r[ins.b], r[ins.a]
			continue
		case ropGlobalGet:
			r[ins.a] = inst.globals[ins.c]
			continue
		case ropGlobalSet:
			inst.globals[ins.c] = r[ins.b]
			continue
		case ropLoad8:
			mem, addr := inst.mem, r[ins.b]+ins.imm
			if uint64(addr) >= uint64(len(mem)) {
				err = trapErr(ins, r)
				break loop
			}
			r[ins.a] = int64(mem[addr])
			continue
		case ropLoad64:
			mem, addr := inst.mem, r[ins.b]+ins.imm
			if !inBounds(addr, 8, len(mem)) {
				err = trapErr(ins, r)
				break loop
			}
			r[ins.a] = int64(binary.LittleEndian.Uint64(mem[addr:]))
			continue
		case ropStore8:
			mem, addr := inst.mem, r[ins.b]+ins.imm
			if uint64(addr) >= uint64(len(mem)) {
				err = trapErr(ins, r)
				break loop
			}
			mem[addr] = byte(r[ins.c])
			continue
		case ropStore64:
			mem, addr := inst.mem, r[ins.b]+ins.imm
			if !inBounds(addr, 8, len(mem)) {
				err = trapErr(ins, r)
				break loop
			}
			binary.LittleEndian.PutUint64(mem[addr:], uint64(r[ins.c]))
			continue
		case ropMemSize:
			r[ins.a] = int64(len(inst.mem))
			continue
		case ropMemGrow, ropMemCopy, ropHost:
			if err = inst.hostOp(ins, r); err != nil {
				break loop
			}
			continue

		case ropAdd + rop(OpAdd-OpAdd):
			r[ins.a] = r[ins.b] + r[ins.c]
			continue
		case ropAdd + rop(OpSub-OpAdd):
			r[ins.a] = r[ins.b] - r[ins.c]
			continue
		case ropAdd + rop(OpMul-OpAdd):
			r[ins.a] = r[ins.b] * r[ins.c]
			continue
		case ropAdd + rop(OpDivS-OpAdd):
			d := r[ins.c]
			if d == 0 {
				err = ErrDivZero
				break loop
			}
			r[ins.a] = r[ins.b] / d
			continue
		case ropAdd + rop(OpRemS-OpAdd):
			d := r[ins.c]
			if d == 0 {
				err = ErrDivZero
				break loop
			}
			r[ins.a] = r[ins.b] % d
			continue
		case ropAdd + rop(OpAnd-OpAdd):
			r[ins.a] = r[ins.b] & r[ins.c]
			continue
		case ropAdd + rop(OpOr-OpAdd):
			r[ins.a] = r[ins.b] | r[ins.c]
			continue
		case ropAdd + rop(OpXor-OpAdd):
			r[ins.a] = r[ins.b] ^ r[ins.c]
			continue
		case ropAdd + rop(OpShl-OpAdd):
			r[ins.a] = r[ins.b] << (uint64(r[ins.c]) & 63)
			continue
		case ropAdd + rop(OpShrS-OpAdd):
			r[ins.a] = r[ins.b] >> (uint64(r[ins.c]) & 63)
			continue
		case ropAdd + rop(OpEq-OpAdd):
			r[ins.a] = b2i(r[ins.b] == r[ins.c])
			continue
		case ropAdd + rop(OpNe-OpAdd):
			r[ins.a] = b2i(r[ins.b] != r[ins.c])
			continue
		case ropAdd + rop(OpLtS-OpAdd):
			r[ins.a] = b2i(r[ins.b] < r[ins.c])
			continue
		case ropAdd + rop(OpGtS-OpAdd):
			r[ins.a] = b2i(r[ins.b] > r[ins.c])
			continue
		case ropAdd + rop(OpLeS-OpAdd):
			r[ins.a] = b2i(r[ins.b] <= r[ins.c])
			continue
		case ropAdd + rop(OpGeS-OpAdd):
			r[ins.a] = b2i(r[ins.b] >= r[ins.c])
			continue

		// The lowering never emits an immediate divide by zero.
		case ropAddI + rop(OpAdd-OpAdd):
			r[ins.a] = r[ins.b] + ins.imm
			continue
		case ropAddI + rop(OpSub-OpAdd):
			r[ins.a] = r[ins.b] - ins.imm
			continue
		case ropAddI + rop(OpMul-OpAdd):
			r[ins.a] = r[ins.b] * ins.imm
			continue
		case ropAddI + rop(OpDivS-OpAdd):
			r[ins.a] = r[ins.b] / ins.imm
			continue
		case ropAddI + rop(OpRemS-OpAdd):
			r[ins.a] = r[ins.b] % ins.imm
			continue
		case ropAddI + rop(OpAnd-OpAdd):
			r[ins.a] = r[ins.b] & ins.imm
			continue
		case ropAddI + rop(OpOr-OpAdd):
			r[ins.a] = r[ins.b] | ins.imm
			continue
		case ropAddI + rop(OpXor-OpAdd):
			r[ins.a] = r[ins.b] ^ ins.imm
			continue
		case ropAddI + rop(OpShl-OpAdd):
			r[ins.a] = r[ins.b] << (uint64(ins.imm) & 63)
			continue
		case ropAddI + rop(OpShrS-OpAdd):
			r[ins.a] = r[ins.b] >> (uint64(ins.imm) & 63)
			continue
		case ropAddI + rop(OpEq-OpAdd):
			r[ins.a] = b2i(r[ins.b] == ins.imm)
			continue
		case ropAddI + rop(OpNe-OpAdd):
			r[ins.a] = b2i(r[ins.b] != ins.imm)
			continue
		case ropAddI + rop(OpLtS-OpAdd):
			r[ins.a] = b2i(r[ins.b] < ins.imm)
			continue
		case ropAddI + rop(OpGtS-OpAdd):
			r[ins.a] = b2i(r[ins.b] > ins.imm)
			continue
		case ropAddI + rop(OpLeS-OpAdd):
			r[ins.a] = b2i(r[ins.b] <= ins.imm)
			continue
		case ropAddI + rop(OpGeS-OpAdd):
			r[ins.a] = b2i(r[ins.b] >= ins.imm)
			continue
		case ropOrEqI:
			r[ins.a] = r[ins.b] | b2i(r[ins.c] == ins.imm)
			continue

		// Everything from here on ends a block and falls out of the
		// switch into the charge below.
		case ropCharge:
		case ropJmp:
			pc = int(ins.a)
		case ropBrZ:
			if r[ins.b] == 0 {
				pc = int(ins.a)
			}
		case ropBrNZ:
			if r[ins.b] != 0 {
				pc = int(ins.a)
			}
		case ropBrEq + rop(OpEq-OpEq):
			if r[ins.b] == r[ins.c] {
				pc = int(ins.a)
			}
		case ropBrEq + rop(OpNe-OpEq):
			if r[ins.b] != r[ins.c] {
				pc = int(ins.a)
			}
		case ropBrEq + rop(OpLtS-OpEq):
			if r[ins.b] < r[ins.c] {
				pc = int(ins.a)
			}
		case ropBrEq + rop(OpGtS-OpEq):
			if r[ins.b] > r[ins.c] {
				pc = int(ins.a)
			}
		case ropBrEq + rop(OpLeS-OpEq):
			if r[ins.b] <= r[ins.c] {
				pc = int(ins.a)
			}
		case ropBrEq + rop(OpGeS-OpEq):
			if r[ins.b] >= r[ins.c] {
				pc = int(ins.a)
			}
		case ropBrEqI + rop(OpEq-OpEq):
			if r[ins.b] == ins.imm {
				pc = int(ins.a)
			}
		case ropBrEqI + rop(OpNe-OpEq):
			if r[ins.b] != ins.imm {
				pc = int(ins.a)
			}
		case ropBrEqI + rop(OpLtS-OpEq):
			if r[ins.b] < ins.imm {
				pc = int(ins.a)
			}
		case ropBrEqI + rop(OpGtS-OpEq):
			if r[ins.b] > ins.imm {
				pc = int(ins.a)
			}
		case ropBrEqI + rop(OpLeS-OpEq):
			if r[ins.b] <= ins.imm {
				pc = int(ins.a)
			}
		case ropBrEqI + rop(OpGeS-OpEq):
			if r[ins.b] >= ins.imm {
				pc = int(ins.a)
			}
		// The increment is written before the compare reads: b may be c.
		case ropIncBrEq + rop(OpEq-OpEq):
			r[ins.b] += ins.imm
			if r[ins.b] == r[ins.c] {
				pc = int(ins.a)
			}
		case ropIncBrEq + rop(OpNe-OpEq):
			r[ins.b] += ins.imm
			if r[ins.b] != r[ins.c] {
				pc = int(ins.a)
			}
		case ropIncBrEq + rop(OpLtS-OpEq):
			r[ins.b] += ins.imm
			if r[ins.b] < r[ins.c] {
				pc = int(ins.a)
			}
		case ropIncBrEq + rop(OpGtS-OpEq):
			r[ins.b] += ins.imm
			if r[ins.b] > r[ins.c] {
				pc = int(ins.a)
			}
		case ropIncBrEq + rop(OpLeS-OpEq):
			r[ins.b] += ins.imm
			if r[ins.b] <= r[ins.c] {
				pc = int(ins.a)
			}
		case ropIncBrEq + rop(OpGeS-OpEq):
			r[ins.b] += ins.imm
			if r[ins.b] >= r[ins.c] {
				pc = int(ins.a)
			}

		case ropCall:
			if pc, r, err = inst.enter(ins, pc); err != nil {
				break loop
			}
		case ropRet:
			if ins.b >= 0 {
				r[0] = r[ins.b]
			}
			if len(inst.frames) == 0 {
				fuel -= int64(ins.n)
				value, has = r[0], true // Call ignores it unless the function declares a result
				break loop
			}
			pc, r = inst.leave()
		case ropHalt:
			fuel -= int64(ins.n)
			value, has = inst.halt(ins, r)
			break loop
		default:
			err = fmt.Errorf("asvm: bad register opcode %d", ins.op)
			break loop
		}

		fuel -= int64(ins.n)
		if fuel < inst.spinMark {
			if fuel < 0 {
				break loop
			}
			inst.spinTo(fuel)
		}
	}
	inst.steps += inst.cfg.Fuel - fuel
	if err == nil && fuel < 0 {
		err = ErrFuelExhausted
	}
	return value, has, err
}

// hostOp runs one of the instructions neither engine runs inline: a
// host call, mem.grow or mem.copy.
func (inst *Instance) hostOp(ins *rinstr, r []int64) error {
	switch ins.op {
	case ropMemGrow:
		old := int64(len(inst.mem))
		if err := inst.grow(r[ins.b]); err != nil {
			return err
		}
		r[ins.a] = old
		return nil
	case ropMemCopy:
		return inst.memCopy(r[ins.a], r[ins.b], r[ins.c])
	}
	return inst.host(ins, r)
}

// halt returns the value a halt leaves: its operand, or over an empty
// stack the topmost operand of the nearest caller that has one.
func (inst *Instance) halt(ins *rinstr, r []int64) (int64, bool) {
	if ins.b >= 0 {
		return r[ins.b], true
	}
	if inst.below >= 0 {
		return inst.arena[inst.below], true
	}
	return 0, false
}

// trapErr is the error of ins trapping: a load or store out of bounds,
// else a division by zero.
func trapErr(ins *rinstr, r []int64) error {
	addr := r[ins.b] + ins.imm
	switch ins.op {
	case ropLoad8:
		return oobErr("load8", addr)
	case ropLoad64:
		return oobErr("load64", addr)
	case ropStore8:
		return oobErr("store8", addr)
	case ropStore64:
		return oobErr("store64", addr)
	}
	return ErrDivZero
}

// host calls import ins.c. Its arguments are a view of the caller's
// registers, capped so an append by the host cannot reach the next one.
func (inst *Instance) host(ins *rinstr, r []int64) error {
	imp := &inst.prog.Imports[ins.c]
	end := ins.b + int32(imp.Arity)
	res, err := inst.hosts[ins.c](inst, r[ins.b:end:end])
	if err != nil {
		return fmt.Errorf("asvm: host %s: %w", imp.Name, err)
	}
	if ins.a >= 0 {
		r[ins.a] = res
	}
	return nil
}

// enter suspends the caller, which resumes at pc, and opens the callee's
// frame over the caller's argument slots, so no argument is copied.
func (inst *Instance) enter(ins *rinstr, pc int) (int, []int64, error) {
	callee := &inst.aot.funcs[ins.b]
	if len(inst.frames) >= maxCallDepth-1 {
		return 0, nil, ErrCallDepth
	}
	under := inst.operands + ins.c
	if int(under+callee.maxStack) > inst.cfg.StackCap {
		return 0, nil, ErrStackOver
	}
	inst.frames = append(inst.frames, aotFrame{pc: int32(pc), base: inst.base, below: inst.below, operands: inst.operands})
	if ins.c > 0 {
		inst.below = inst.base + ins.a - 1
	}
	inst.operands = under
	inst.base += ins.a
	if need, have := int(inst.base+callee.frame), len(inst.arena); need > have {
		inst.arena = append(inst.arena, make([]int64, max(need, 2*have)-have)...)
	}
	r := inst.arena[inst.base:]
	clear(r[callee.nargs:callee.nlocals])
	return int(callee.entry), r, nil
}

// leave resumes the caller suspended last.
func (inst *Instance) leave() (int, []int64) {
	fr := inst.frames[len(inst.frames)-1]
	inst.frames = inst.frames[:len(inst.frames)-1]
	inst.base, inst.below, inst.operands = fr.base, fr.below, fr.operands
	return int(fr.pc), inst.arena[fr.base:]
}
