package asvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// x86.go emits the register code compile.go produces as x86-64 machine
// code: the native tier. It is plain Go that writes bytes, so every
// build can emit and check them (x86check.go); only linux/amd64 builds
// without -race map and run them (native.go).
//
// The emitted code keeps no guest state in machine registers across a
// register instruction except as a cache: every frame register lives in
// the instance's arena and every write to one is stored at once, so the
// code can be left, and re-entered at any register instruction's start,
// from Go. Six machine registers hold what the trampoline loads on each
// entry and the code never writes:
//
//	RDI  &arena[base], the running frame's register 0
//	RSI  &mem[0]
//	R8   len(mem)
//	R13  max(len(mem)-7, 0): a load64 or store64 at addr is in bounds iff addr < R13, unsigned
//	R10  &globals[0]
//	R9   the nativeCtx the exits write
//
// RBX holds the fuel budget, fuel minus the mark; RAX, RCX, RDX and R11
// are scratch. R12 and R15 each mirror one frame register of the running
// function that a loop carries through a recurrence (hotRegisters):
// every write goes to the frame and the mirror, reads come from the
// mirror, so the value stays out of the store-to-load forwarding path,
// and memory is always whole when the code leaves. Go re-enters a function that has mirrors through
// a stub that loads them first. RSP, RBP, R14 and the vector registers
// are never named, so the code needs no stack beyond the return address
// the trampoline's CALL pushes, and never disturbs what Go keeps in them.
//
// Moves, globals, loads and stores (each behind an explicit bounds
// check), binary operators, compares, branches and block charges run
// inline. Everything else leaves through the function's exit with an
// exit code in RAX and a register pc in RCX:
//
//	exitOp    code[pc] is a call, return, halt, host call, mem.grow or
//	          mem.copy; Go runs it and resumes
//	exitTrap  code[pc] failed its bounds check or divided by zero
//	exitMark  a block charge took fuel below the mark; resume at pc
const (
	exitOp = iota + 1
	exitTrap
	exitMark
)

// Machine registers, in x86-64 numbering.
const (
	xAX = iota
	xCX
	xDX
	xBX
	xSP
	xBP
	xSI
	xDI
	x8
	x9
	x10
	x11
	x12
	x13
	x14
	x15
)

// The registers' roles (see above).
const (
	regFrame   = xDI
	regMem     = xSI
	regLen     = x8
	regLen7    = x13
	regGlobals = x10
	regCtx     = x9
	regBudget  = xBX
)

// Condition codes, the low nibble of Jcc, SETcc and CMOVcc.
const (
	ccAE = 0x3
	ccE  = 0x4
	ccNE = 0x5
	ccS  = 0x8
	ccL  = 0xC
	ccGE = 0xD
	ccLE = 0xE
	ccG  = 0xF
)

// compareCC maps a comparison to the condition under which it holds.
func compareCC(op Op) byte {
	switch op {
	case OpEq:
		return ccE
	case OpNe:
		return ccNE
	case OpLtS:
		return ccL
	case OpGtS:
		return ccG
	case OpLeS:
		return ccLE
	}
	return ccGE // OpGeS
}

// wrpkru is the x86 encoding of the instruction that rewrites the
// protection-key rights register, and xrstor XRSTOR's opcode (0F AE /5),
// which can load it from memory. No executable byte range may spell
// either (ERIM §4): the native tier's checker refuses a buffer that
// does, and scan refuses or rewrites a guest image whose immediates do,
// both through ForbiddenAt, the one definition of these bytes.
var (
	wrpkru = [3]byte{0x0F, 0x01, 0xEF}
	xrstor = [2]byte{0x0F, 0xAE}
)

// ForbiddenAt returns the offset of the first WRPKRU or XRSTOR in b, or
// -1. XRSTOR is any 0F AE whose ModRM reg field is 5, whatever its mod:
// erring towards refusal costs nothing, since no emitted form uses it.
func ForbiddenAt(b []byte) int {
	for i := 0; i+3 <= len(b); i++ {
		if b[i] != wrpkru[0] {
			continue
		}
		if b[i+1] == wrpkru[1] && b[i+2] == wrpkru[2] || b[i+1] == xrstor[1] && b[i+2]>>3&7 == 5 {
			return i
		}
	}
	return -1
}

// clean reports whether the n low-order bytes of v, little-endian, hold
// no forbidden sequence. Every sequence is three non-zero bytes and no
// emitted form writes 0F 01 or 0F AE or begins with 01, AE or EF, so a
// clean immediate beside the emitter's opcodes and small displacements
// takes part in none; the checker's scan of the whole buffer is what
// makes sure.
func clean(v int64, n int) bool {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return ForbiddenAt(b[:n]) < 0
}

// errEmit reports a program the emitter has no clean encoding for.
var errEmit = errors.New("asvm: native tier cannot encode program")

// mop is a ModRM operand: a register, [base+disp32], or [base+index].
type mop struct {
	kind      uint8
	reg, base int
	index     int
	disp      int32
}

const (
	mReg = iota
	mDisp
	mIndex
)

func reg(r int) mop { return mop{kind: mReg, reg: r} }

// linear is the linear-memory byte at the address in RAX.
var linear = mop{kind: mIndex, base: regMem, index: xAX}

// asm appends x86-64 instructions to a buffer. It encodes only the forms
// the emitter uses; x86check.go decodes exactly those.
type asm struct {
	b   []byte
	err error
}

func (a *asm) byte1(v byte) { a.b = append(a.b, v) }
func (a *asm) imm32(v int32) {
	a.b = binary.LittleEndian.AppendUint32(a.b, uint32(v))
}

// rm emits an instruction with a ModRM byte: opcode opc (0x0Fxx for the
// two-byte map), r the reg field (a register or an opcode extension),
// m the r/m operand, w whether the operand size is 64 bits.
func (a *asm) rm(w bool, opc uint16, r int, m mop) {
	rex := byte(0x40)
	if w {
		rex |= 8
	}
	rex |= byte(r>>3) << 2
	switch m.kind {
	case mReg:
		rex |= byte(m.reg >> 3)
	case mDisp:
		rex |= byte(m.base >> 3)
	case mIndex:
		rex |= byte(m.index>>3)<<1 | byte(m.base>>3)
	}
	if rex != 0x40 {
		a.byte1(rex)
	}
	if opc > 0xFF {
		a.byte1(byte(opc >> 8))
	}
	a.byte1(byte(opc))
	switch m.kind {
	case mReg:
		a.byte1(0xC0 | byte(r&7)<<3 | byte(m.reg&7))
	case mDisp:
		// mod 10: [base+disp32]. A base of RSP/R12 would need a SIB
		// byte; the emitter never uses one.
		a.byte1(0x80 | byte(r&7)<<3 | byte(m.base&7))
		a.imm32(m.disp)
	case mIndex:
		// mod 00 with a SIB byte: [base+index*1]. A base of RBP/R13
		// would mean disp32 with no base; the emitter never uses one.
		a.byte1(0x04 | byte(r&7)<<3)
		a.byte1(byte(m.index&7)<<3 | byte(m.base&7))
	}
}

// The ALU operators' opcodes: op r64, r/m64 and the 81 /digit extension.
const (
	aluAdd = 0x03
	aluOr  = 0x0B
	aluAnd = 0x23
	aluSub = 0x2B
	aluXor = 0x33
	aluCmp = 0x3B
)

// aluDigit maps an ALU opcode to its 81 /digit extension.
func aluDigit(opc byte) int { return int(opc >> 3) }

func (a *asm) load(r int, m mop)  { a.rm(true, 0x8B, r, m) }
func (a *asm) store(m mop, r int) { a.rm(true, 0x89, r, m) }
func (a *asm) alu(opc byte, r int, m mop) {
	a.rm(true, uint16(opc), r, m)
}
func (a *asm) aluImm(opc byte, m mop, v int32) {
	a.rm(true, 0x81, aluDigit(opc), m)
	a.imm32c(v)
}

// imm32c appends an immediate the caller has not proved clean.
func (a *asm) imm32c(v int32) {
	if !clean(int64(v), 4) && a.err == nil {
		a.err = fmt.Errorf("%w: immediate %#x", errEmit, uint32(v))
	}
	a.imm32(v)
}
func (a *asm) setcc(cc byte, r int) { a.rm(false, 0x0F90|uint16(cc), 0, reg(r)) }
func (a *asm) movzxb(r int, m mop)  { a.rm(false, 0x0FB6, r, m) }
func (a *asm) cmov(cc byte, r, src int) {
	a.rm(true, 0x0F40|uint16(cc), r, reg(src))
}

// mov32 loads a 32-bit immediate, zero-extended.
func (a *asm) mov32(r int, v uint32) {
	if r >= 8 {
		a.byte1(0x41)
	}
	a.byte1(0xB8 + byte(r&7))
	a.imm32c(int32(v))
}

// movImm loads v into r (never R11) through encodings whose immediates
// are clean. A value whose bytes spell a forbidden sequence is split
// the way scan.Rewrite splits a push: two halves whose alternate bytes
// are zero, so neither holds three non-zero bytes in a row, joined by
// an or through R11.
func (a *asm) movImm(r int, v int64) {
	switch {
	case v >= 0 && v <= math.MaxUint32 && clean(v, 4):
		a.mov32(r, uint32(v))
	case v == int64(int32(v)) && clean(v, 4):
		a.rm(true, 0xC7, 0, reg(r))
		a.imm32(int32(v))
	case clean(v, 8):
		a.byte1(0x48 | byte(r>>3))
		a.byte1(0xB8 + byte(r&7))
		a.b = binary.LittleEndian.AppendUint64(a.b, uint64(v))
	default:
		const even = 0x00FF00FF00FF00FF
		a.movImm(r, v&even)
		a.movImm(x11, v&^even)
		a.alu(aluOr, r, reg(x11))
	}
}

// jcc emits a conditional jump and returns the offset of its rel32.
func (a *asm) jcc(cc byte) int {
	a.byte1(0x0F)
	a.byte1(0x80 | cc)
	a.imm32(0)
	return len(a.b) - 4
}

// jmp emits an unconditional jump and returns the offset of its rel32.
func (a *asm) jmp() int {
	a.byte1(0xE9)
	a.imm32(0)
	return len(a.b) - 4
}

// patch points the rel32 at at to offset to.
func (a *asm) patch(at, to int) {
	binary.LittleEndian.PutUint32(a.b[at:], uint32(int32(to-(at+4))))
}

// src is frame register x as an operand: its mirror, or its slot.
func (e *emitter) src(x int32) mop {
	if m, ok := e.mirror[x]; ok {
		return reg(m)
	}
	return e.frame(x)
}

// put writes machine register r to frame register x: its slot, and its
// mirror if it has one.
func (e *emitter) put(x int32, r int) {
	e.store(e.frame(x), r)
	if m, ok := e.mirror[x]; ok && m != r {
		e.load(m, reg(r))
	}
}

// frame is frame register x's slot, [RDI+8x].
func (e *emitter) frame(x int32) mop {
	d := int64(x) * 8
	if d > math.MaxInt32 || !clean(d, 4) {
		e.fail("frame register %d", x)
	}
	return mop{kind: mDisp, base: regFrame, disp: int32(d)}
}

// global is global c's slot, [R10+8c].
func (e *emitter) global(c int32) mop {
	d := int64(c) * 8
	if d > math.MaxInt32 || !clean(d, 4) {
		e.fail("global %d", c)
	}
	return mop{kind: mDisp, base: regGlobals, disp: int32(d)}
}

// mirrors are the machine registers that mirror frame registers.
var mirrors = [...]int{x12, x15}

// emitter lowers one program's register code.
type emitter struct {
	asm
	// mirror maps the running function's mirrored frame registers to
	// their machine registers; mirrored lists them in mirrors' order.
	mirror   map[int32]int
	mirrored []int32
	// off[pc] is where register instruction pc starts.
	off []uint32
	// fresh[pc]: control can arrive at pc from elsewhere — a branch, a
	// call's return, a resumed exit — so no machine register is known
	// to hold anything there.
	fresh []bool
	// rax is the frame register RAX holds, or -1.
	rax int32
	// Branches to register pcs, resolved once every pc is placed; and
	// within the function being emitted, its stubs and the jumps to its
	// exit.
	branches []brFix
	stubs    []stub
	exits    []int
}

type brFix struct {
	at int   // offset of a rel32
	pc int32 // its target register pc
}

// stub is an out-of-line exit: jumped to from at, it leaves with exit
// and pc; a mark exit after a conditional branch first re-evaluates the
// branch (br) to resume on the side it takes.
type stub struct {
	at   int
	exit int
	pc   int32
	br   *rinstr
}

func (e *emitter) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("%w: %s", errEmit, fmt.Sprintf(format, args...))
	}
}

// emitNative emits prog's register code. It returns the buffer, the
// offset of every register instruction, and where Go enters the code to
// resume at each pc (the instruction itself, or a stub that loads its
// function's mirrors first); or errEmit for a program that needs an
// encoding the emitter refuses to produce.
func emitNative(c *compiled) (buf []byte, off, entry []uint32, err error) {
	e := &emitter{off: make([]uint32, len(c.code)), fresh: make([]bool, len(c.code)+1)}
	entry = make([]uint32, len(c.code))
	for _, f := range c.funcs {
		e.fresh[f.entry] = true
	}
	for pc, ins := range c.code {
		if exitsOrEnds(ins.op) {
			e.fresh[pc+1] = true
		}
		if isBranch(ins.op) {
			e.fresh[ins.a] = true
		}
	}
	for fi := range c.funcs {
		start, end := c.bounds(fi)
		e.stubs = e.stubs[:0]
		e.mirrored = hotRegisters(c, fi)
		e.mirror = map[int32]int{}
		for i, x := range e.mirrored {
			e.mirror[x] = mirrors[i]
		}
		for pc := start; pc < end; pc++ {
			e.off[pc] = uint32(len(e.b))
			if e.fresh[pc] {
				e.rax = -1
			}
			e.instr(int32(pc), &c.code[pc])
		}
		// The function's stubs, then the exit they all leave through.
		for _, s := range e.stubs {
			e.patch(s.at, len(e.b))
			if s.br != nil {
				cc := e.condition(s.br, -1)
				e.mov32(xCX, uint32(s.pc+1))
				e.mov32(xDX, uint32(s.br.a))
				e.cmov(cc, xCX, xDX)
			} else {
				e.mov32(xCX, uint32(s.pc))
			}
			e.mov32(xAX, uint32(s.exit))
			e.exits = append(e.exits, e.jmp())
		}
		for _, at := range e.exits {
			e.patch(at, len(e.b))
		}
		e.exits = e.exits[:0]
		e.store(mop{kind: mDisp, base: regCtx, disp: ctxExit}, xAX)
		e.store(mop{kind: mDisp, base: regCtx, disp: ctxPC}, xCX)
		e.store(mop{kind: mDisp, base: regCtx, disp: ctxBudget}, regBudget)
		e.byte1(0xC3) // RET
		for pc := start; pc < end; pc++ {
			entry[pc] = e.off[pc]
			if len(e.mirror) == 0 || !e.fresh[pc] {
				continue
			}
			entry[pc] = uint32(len(e.b))
			for i, x := range e.mirrored {
				e.load(mirrors[i], e.frame(x))
			}
			e.branches = append(e.branches, brFix{at: e.jmp(), pc: int32(pc)})
		}
	}
	for _, f := range e.branches {
		e.patch(f.at, int(e.off[f.pc]))
	}
	if e.err == nil && len(e.b) > math.MaxInt32 {
		e.fail("%d bytes of code", len(e.b))
	}
	if e.err != nil {
		return nil, nil, nil, e.err
	}
	return e.b, e.off, entry, nil
}

// hotRegisters picks the frame registers of function fi to mirror, one
// per mirror: the ones a loop (a backward branch's range) carries from
// one iteration to the next through a recurrence — read before the loop
// writes them, and written by an instruction that also reads them, as
// an accumulator or a counter is — whose value would otherwise wait on
// a store-to-load forward every iteration; the most used in loops
// first, then the lower index. A register a loop only copies into (a
// flag set from another) gains nothing from a mirror.
func hotRegisters(c *compiled, fi int) []int32 {
	start, end := c.bounds(fi)
	uses := map[int32]int{}
	carried := map[int32]bool{}
	for pc := start; pc < end; pc++ {
		br := &c.code[pc]
		if !isBranch(br.op) || int(br.a) > pc {
			continue
		}
		written, exposed := map[int32]bool{}, map[int32]bool{}
		for q := int(br.a); q <= pc; q++ {
			reads, writes := frameUses(&c.code[q])
			for _, x := range reads {
				uses[x]++
				exposed[x] = exposed[x] || !written[x]
			}
			for _, x := range writes {
				uses[x]++
				written[x] = true
				if exposed[x] && slices.Contains(reads, x) {
					carried[x] = true
				}
			}
		}
	}
	hot := make([]int32, 0, len(carried))
	for x := range carried {
		hot = append(hot, x)
	}
	slices.SortFunc(hot, func(x, y int32) int {
		if uses[x] != uses[y] {
			return uses[y] - uses[x]
		}
		return int(x - y)
	})
	return hot[:min(len(hot), len(mirrors))]
}

// frameUses lists the frame registers an inline instruction reads and
// writes; the instructions that exit to Go list none.
func frameUses(ins *rinstr) (reads, writes []int32) {
	a, b, c := []int32{ins.a}, []int32{ins.b}, []int32{ins.b, ins.c}
	switch op := ins.op; {
	case op == ropMovI || op == ropGlobalGet || op == ropMemSize:
		return nil, a
	case op == ropMov || op == ropLoad8 || op == ropLoad64 || op >= ropAddI && op < ropBrEq:
		return b, a
	case op == ropSwap:
		return []int32{ins.a, ins.b}, []int32{ins.a, ins.b}
	case op == ropGlobalSet || op == ropBrZ || op == ropBrNZ || op >= ropBrEqI && op < ropIncBrEq:
		return b, nil
	case op == ropStore8 || op == ropStore64 || op >= ropBrEq && op < ropBrEqI:
		return c, nil
	case op >= ropIncBrEq && op < ropOrEqI:
		return c, b
	case op >= ropAdd && op < ropAddI || op == ropOrEqI:
		return c, a
	}
	return nil, nil
}

// fits reports whether v has a clean sign-extended imm32 encoding.
func fits(v int64) bool { return v == int64(int32(v)) && clean(v, 4) }

// aluRI applies ALU operator opc to r and v, through RCX (or RDX when r
// is RCX) when v has no clean imm32 form.
func (e *emitter) aluRI(opc byte, r int, v int64) {
	if fits(v) {
		e.aluImm(opc, reg(r), int32(v))
		return
	}
	s := xCX
	if r == xCX {
		s = xDX
	}
	e.movImm(s, v)
	e.alu(opc, r, reg(s))
}

// exit leaves through the function's exit with code and pc.
func (e *emitter) exit(code int, pc int32) {
	e.mov32(xAX, uint32(code))
	e.mov32(xCX, uint32(pc))
	e.exits = append(e.exits, e.jmp())
}

// trapIf leaves as a trap of instruction pc when cc holds.
func (e *emitter) trapIf(cc byte, pc int32) {
	e.stubs = append(e.stubs, stub{at: e.jcc(cc), exit: exitTrap, pc: pc})
}

// charge takes a block's n source instructions from the budget and
// leaves with a mark exit when it goes negative: resuming at resume, or
// for a conditional branch br on the side br takes.
func (e *emitter) charge(n int32, br *rinstr, pc, resume int32) {
	if n == 0 {
		return
	}
	e.aluImm(aluSub, reg(regBudget), n)
	s := stub{at: e.jcc(ccS), exit: exitMark, pc: resume}
	if br != nil {
		s.pc, s.br = pc, br
	}
	e.stubs = append(e.stubs, s)
}

// condition emits the compare of branch br and returns the condition
// under which it is taken. held is the frame register RAX holds, or -1.
func (e *emitter) condition(br *rinstr, held int32) byte {
	switch op := br.op; {
	case op == ropBrZ || op == ropBrNZ:
		switch m, ok := e.mirror[br.b]; {
		case held == br.b:
			e.rm(true, 0x85, xAX, reg(xAX)) // TEST RAX, RAX
		case ok:
			e.rm(true, 0x85, m, reg(m))
		default:
			e.aluImm(aluCmp, e.frame(br.b), 0)
		}
		if op == ropBrZ {
			return ccE
		}
		return ccNE
	case op >= ropBrEqI && op < ropIncBrEq:
		if held != br.b {
			e.load(xAX, e.src(br.b))
		}
		e.aluRI(aluCmp, xAX, br.imm)
		return compareCC(OpEq + Op(op-ropBrEqI))
	default: // ropBrEq and ropIncBrEq
		if held != br.b {
			e.load(xAX, e.src(br.b))
		}
		e.alu(aluCmp, xAX, e.src(br.c))
		if op >= ropIncBrEq {
			return compareCC(OpEq + Op(op-ropIncBrEq))
		}
		return compareCC(OpEq + Op(op-ropBrEq))
	}
}

// address leaves r[b]+imm, wrapping as in Go, in RAX.
func (e *emitter) address(ins *rinstr, held int32) {
	if held != ins.b {
		e.load(xAX, e.src(ins.b))
	}
	if ins.imm != 0 {
		e.aluRI(aluAdd, xAX, ins.imm)
	}
}

// bounds leaves as a trap of pc unless the address in RAX is in bounds
// for an access of size bytes (1 or 8).
func (e *emitter) bounds(size int, pc int32) {
	limit := regLen
	if size == 8 {
		limit = regLen7
	}
	e.alu(aluCmp, xAX, reg(limit))
	e.trapIf(ccAE, pc)
}

// result stores RAX as r[a] and notes that RAX holds it.
func (e *emitter) result(a int32) {
	e.put(a, xAX)
	e.rax = a
}

// aluOf maps the binary operators with an ALU opcode to it.
var aluOf = map[Op]byte{OpAdd: aluAdd, OpSub: aluSub, OpAnd: aluAnd, OpOr: aluOr, OpXor: aluXor}

// instr emits register instruction pc.
func (e *emitter) instr(pc int32, ins *rinstr) {
	held := e.rax
	e.rax = -1
	ld := func(x int32) { // RAX = r[x]
		if held != x {
			e.load(xAX, e.src(x))
		}
	}
	switch op := ins.op; {
	case op == ropMovI:
		if _, ok := e.mirror[ins.a]; fits(ins.imm) && !ok {
			e.rm(true, 0xC7, 0, e.frame(ins.a))
			e.imm32(int32(ins.imm))
			if held != ins.a {
				e.rax = held
			}
			return
		}
		e.movImm(xAX, ins.imm)
		e.result(ins.a)
	case op == ropMov:
		ld(ins.b)
		e.result(ins.a)
	case op == ropSwap:
		e.load(xAX, e.src(ins.a))
		e.load(xCX, e.src(ins.b))
		e.put(ins.a, xCX)
		e.result(ins.b)
	case op == ropGlobalGet:
		e.load(xAX, e.global(ins.c))
		e.result(ins.a)
	case op == ropGlobalSet:
		ld(ins.b)
		e.store(e.global(ins.c), xAX)
		e.rax = ins.b
	case op == ropLoad8 || op == ropLoad64:
		e.address(ins, held)
		if op == ropLoad8 {
			e.bounds(1, pc)
			e.movzxb(xAX, linear)
		} else {
			e.bounds(8, pc)
			e.load(xAX, linear)
		}
		e.result(ins.a)
	case op == ropStore8 || op == ropStore64:
		e.address(ins, held)
		e.load(xCX, e.src(ins.c))
		if op == ropStore8 {
			e.bounds(1, pc)
			e.rm(false, 0x88, xCX, linear) // MOV [RSI+RAX], CL
		} else {
			e.bounds(8, pc)
			e.store(linear, xCX)
		}
	case op == ropMemSize:
		e.put(ins.a, regLen)
		if held != ins.a {
			e.rax = held
		}
	case op == ropMemGrow || op == ropMemCopy || op == ropHost || op == ropCall || op == ropRet || op == ropHalt:
		e.exit(exitOp, pc)
	case op >= ropAdd && op < ropAddI:
		e.binop(pc, OpAdd+Op(op-ropAdd), ins, false, ld)
	case op >= ropAddI && op < ropBrEq:
		e.binop(pc, OpAdd+Op(op-ropAddI), ins, true, ld)
	case op == ropOrEqI:
		ld(ins.b)
		e.load(xCX, e.src(ins.c))
		e.aluRI(aluCmp, xCX, ins.imm)
		e.setcc(ccE, xCX)
		e.movzxb(xCX, reg(xCX))
		e.alu(aluOr, xAX, reg(xCX))
		e.result(ins.a)
	case op == ropCharge:
		e.charge(ins.n, nil, pc, pc+1)
	case op == ropJmp:
		e.charge(ins.n, nil, pc, ins.a)
		e.branches = append(e.branches, brFix{at: e.jmp(), pc: ins.a})
	case op >= ropIncBrEq && op < ropOrEqI:
		ld(ins.b)
		e.aluRI(aluAdd, xAX, ins.imm)
		e.put(ins.b, xAX)
		e.charge(ins.n, ins, pc, 0)
		e.branches = append(e.branches, brFix{at: e.jcc(e.condition(ins, ins.b)), pc: ins.a})
		e.rax = ins.b
	case isBranch(op):
		e.charge(ins.n, ins, pc, 0)
		e.branches = append(e.branches, brFix{at: e.jcc(e.condition(ins, held)), pc: ins.a})
	default:
		e.fail("register opcode %d", op)
	}
}

// binop emits r[a] = r[b] op r[c], or op imm when imm is set.
func (e *emitter) binop(pc int32, op Op, ins *rinstr, imm bool, ld func(int32)) {
	ld(ins.b)
	// The right operand, as an r/m operand: r[c], or the immediate in RCX.
	right := func() mop {
		if !imm {
			return e.src(ins.c)
		}
		e.movImm(xCX, ins.imm)
		return reg(xCX)
	}
	switch op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor:
		if imm {
			e.aluRI(aluOf[op], xAX, ins.imm)
		} else {
			e.alu(aluOf[op], xAX, e.src(ins.c))
		}
	case OpMul:
		if imm && fits(ins.imm) {
			e.rm(true, 0x69, xAX, reg(xAX)) // IMUL RAX, RAX, imm32
			e.imm32(int32(ins.imm))
		} else {
			e.rm(true, 0x0FAF, xAX, right())
		}
	case OpDivS, OpRemS:
		e.divide(pc, op, ins, imm)
	case OpShl, OpShrS:
		digit := 4
		if op == OpShrS {
			digit = 7
		}
		if imm {
			e.rm(true, 0xC1, digit, reg(xAX))
			e.byte1(byte(ins.imm & 63))
		} else {
			e.load(xCX, e.src(ins.c))
			e.rm(true, 0xD3, digit, reg(xAX)) // the CPU masks CL to 63, as Go's & 63
		}
	default: // the comparisons
		if imm {
			e.aluRI(aluCmp, xAX, ins.imm)
		} else {
			e.alu(aluCmp, xAX, e.src(ins.c))
		}
		e.setcc(compareCC(op), xAX)
		e.movzxb(xAX, reg(xAX))
	}
	e.result(ins.a)
}

// divide emits RAX = RAX / divisor (or %), the divisor r[c] or imm. A
// zero divisor traps. IDIV faults on MinInt64 / -1, which Go defines as
// MinInt64 (and % -1 as 0), so a -1 divisor divides the negated
// dividend by 1 instead: no branch, and no fault in foreign code.
func (e *emitter) divide(pc int32, op Op, ins *rinstr, imm bool) {
	switch {
	case imm && ins.imm == -1:
		if op == OpDivS {
			e.rm(true, 0xF7, 3, reg(xAX)) // NEG RAX
		} else {
			e.mov32(xAX, 0)
		}
		return
	case imm && ins.imm == 0: // the lowering never emits one
		e.exit(exitTrap, pc)
		return
	case imm:
		e.movImm(xCX, ins.imm)
	default:
		e.load(xCX, e.src(ins.c))
		e.rm(true, 0x85, xCX, reg(xCX)) // TEST RCX, RCX
		e.trapIf(ccE, pc)
		e.load(xDX, reg(xAX))
		e.rm(true, 0xF7, 3, reg(xDX)) // NEG RDX
		e.aluImm(aluCmp, reg(xCX), -1)
		e.cmov(ccE, xAX, xDX)
		e.mov32(xDX, 1)
		e.cmov(ccE, xCX, xDX)
	}
	e.byte1(0x48)
	e.byte1(0x99)                 // CQO
	e.rm(true, 0xF7, 7, reg(xCX)) // IDIV RCX
	if op == OpRemS {
		e.load(xAX, reg(xDX))
	}
}
