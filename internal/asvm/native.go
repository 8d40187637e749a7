package asvm

import (
	"runtime"
	"sync"
	"unsafe"
)

// native.go runs the machine code x86.go emits (DESIGN S4: the native
// tier). A program's code is emitted, mapped and checked once, by the
// same compile that lowers it to register code; every instance of the
// program runs it through nativeEnter, a trampoline in Go assembly,
// where the platform has one (native_linux_amd64.go) and the register
// engine everywhere else. Whatever the code leaves to Go — calls,
// returns, host calls, mem.grow, mem.copy, traps and fuel marks — runs
// here, through the register engine's own enter, leave, host, grow,
// memCopy and spinTo, so every slow path exists once.

// nativeCtx is what the trampoline loads into machine registers on each
// entry, and what the code's exits write back.
type nativeCtx struct {
	frame   uintptr // &arena[base]
	mem     uintptr // &mem[0]
	memLen  int64   // len(mem)
	memLen7 int64   // max(len(mem)-7, 0)
	globals uintptr // &globals[0]
	budget  int64   // fuel minus the mark: the code leaves when it goes negative
	exit    int64   // exitOp, exitTrap or exitMark
	pc      int64   // the register pc the exit names
}

// The offsets the emitted exits write, as disp32s off R9.
const (
	ctxBudget = int32(unsafe.Offsetof(nativeCtx{}.budget))
	ctxExit   = int32(unsafe.Offsetof(nativeCtx{}.exit))
	ctxPC     = int32(unsafe.Offsetof(nativeCtx{}.pc))
)

// nativeSlice bounds the steps native code runs between two returns to
// Go: ≈ 100 µs of guest time, the longest a GC or a preemption waits
// for it, since Go cannot stop foreign code.
const nativeSlice = 1 << 20

// nativeCode is a program's checked machine code: text is mapped read
// and execute, and at[pc] is where Go enters it to resume at register
// pc.
type nativeCode struct {
	text []byte
	at   []uint32
}

func (n *nativeCode) entry(pc int) uintptr {
	return uintptr(unsafe.Pointer(&n.text[n.at[pc]]))
}

// buildNative emits c as machine code, maps it and checks the mapped
// bytes. A program the checker refuses is refused: the error fails
// Instantiate. Where the build has no native tier, or the host will not
// map executable pages, it returns nil and the program runs on the
// register engine (TestNativeTierPresent fails a CI host that does so).
func buildNative(c *compiled, globals int) (*nativeCode, error) {
	if !nativeTier {
		return nil, nil
	}
	buf, off, at, err := emitNative(c)
	if err != nil {
		return nil, err
	}
	text, err := mapText(buf)
	if err != nil {
		return nil, nil
	}
	if err := checkNative(text, off, at, c, globals); err != nil {
		unmapText(text)
		return nil, err
	}
	n := &nativeCode{text: text, at: at}
	runtime.SetFinalizer(n, func(n *nativeCode) { unmapText(n.text) })
	return n, nil
}

// callNative runs function fi with args on the native tier, with the
// register engine's results, steps, fuel and spin payments.
func (inst *Instance) callNative(fi int, args []int64) (value int64, has bool, err error) {
	c := inst.aot
	nc := c.native
	f := &c.funcs[fi]
	if int(f.maxStack) > inst.cfg.StackCap {
		return 0, false, ErrStackOver
	}
	inst.frames = inst.frames[:0]
	inst.base, inst.operands, inst.below = 0, 0, -1
	r := inst.arena
	copy(r, args)
	clear(r[f.nargs:f.nlocals])

	fuel := inst.cfg.Fuel
	pc := int(f.entry)
	yielded := fuel // the fuel level at the last yield to the scheduler
	var x nativeCtx
loop:
	for {
		mark := max(inst.spinMark, fuel-nativeSlice)
		x.budget = fuel - mark
		x.frame = uintptr(unsafe.Pointer(&r[0]))
		x.mem = uintptr(unsafe.Pointer(unsafe.SliceData(inst.mem)))
		x.memLen = int64(len(inst.mem))
		x.memLen7 = max(x.memLen-7, 0)
		x.globals = uintptr(unsafe.Pointer(unsafe.SliceData(inst.globals)))
		nativeEnter(&x, nc.entry(pc))
		fuel = mark + x.budget
		pc = int(x.pc)
		ins := &c.code[pc]
		switch x.exit {
		case exitMark:
			if fuel < inst.spinMark {
				if fuel < 0 {
					break loop
				}
				inst.spinTo(fuel)
			}
			if yielded-fuel >= nativeSlice {
				// Go preempts a goroutine only where it runs Go code, and
				// this loop is all but never there: let a GC or a waiting
				// goroutine in, once a slice.
				runtime.Gosched()
				yielded = fuel
			}
			continue
		case exitTrap:
			err = trapErr(ins, r)
			break loop
		}
		pc++
		switch ins.op {
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
				value, has = r[0], true
				break loop
			}
			pc, r = inst.leave()
		case ropHalt:
			fuel -= int64(ins.n)
			value, has = inst.halt(ins, r)
			break loop
		default:
			if err = inst.hostOp(ins, r); err != nil {
				break loop
			}
			continue
		}
		fuel -= int64(ins.n)
		if fuel < inst.spinMark {
			if fuel < 0 {
				break loop
			}
			inst.spinTo(fuel)
		}
	}
	runtime.KeepAlive(nc)
	inst.steps += inst.cfg.Fuel - fuel
	if err == nil && fuel < 0 {
		err = ErrFuelExhausted
	}
	return value, has, err
}

// burn does units of spin, as overheadSpin's adds where no native code
// runs and as steps of spinSrc on native code: a unit must cost a fixed
// share of the tier's base step, and an add, which costs about one
// register-engine step, costs three to five native ones, by loop and
// by host.
func burn(units int64) int64 {
	c := spinCode()
	if c == nil || units <= 0 {
		return overheadSpin(units)
	}
	// The entry is computed first: x.frame holds a stack address as a
	// uintptr, which a stack move would not update, so no call that
	// could grow the stack may come between taking it and nativeEnter
	// (NOSPLIT, no frame).
	entry := c.native.entry(int(c.funcs[0].entry))
	var frame [spinFrame]int64
	frame[0] = 1 << 62 // the loop's bound: fuel ends it
	x := nativeCtx{frame: uintptr(unsafe.Pointer(&frame[0])), budget: units - 1}
	nativeEnter(&x, entry)
	return frame[1]
}

// spinSrc is `asbench -exp engines`'s loop, two nops longer: 15 steps
// an iteration for the work of 13, so a unit costs 13/15 ≈ 0.87 of a
// base step of that loop, what one add costs against a register-engine
// step (the Python tier's 2.6 realised 2.4x there).
const spinSrc = `
func spin 1 3 1
  push 0
  local.set 1
  push 0
  local.set 2
head:
  local.get 2
  local.get 0
  lt
  jz done
  nop
  nop
  local.get 1
  local.get 2
  xor
  local.set 1
  local.get 2
  push 1
  add
  local.set 2
  jmp head
done:
  local.get 1
  ret
end`

// spinFrame bounds spinSrc's frame: its locals and operand slots.
const spinFrame = 8

// spinCode is spinSrc's compiled form where native code runs, else nil.
var spinCode = sync.OnceValue(func() *compiled {
	if !nativeTier {
		return nil
	}
	c, err := MustAssemble(spinSrc).compile()
	if err != nil || c.native == nil || c.funcs[0].frame > spinFrame {
		panic("asvm: spin loop does not compile")
	}
	return c
})
