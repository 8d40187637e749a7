package asvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// x86check.go proves a native buffer safe to run before any byte of it
// does. The emitter is not trusted (Occlum's argument: trust the
// verifier, not the compiler); this decoder is, and it is small because
// it knows only the forms x86.go writes: anything else is refused. It
// proves, over the bytes as mapped:
//
//   - no offset spells WRPKRU or XRSTOR (ForbiddenAt);
//   - the bytes decode, end to end, into known forms, and every register
//     instruction's start and every place Go enters the code is an
//     instruction boundary inside its function;
//   - every jump lands, inside its own function, on a block entry of the
//     register code (a function entry, a branch target, or the
//     instruction after a terminator or an exit to Go) or on a stub (an
//     instruction that follows an unconditional jump), and no function
//     falls into the next;
//   - the code writes only RAX, RCX, RDX, RBX, R11 and the mirrors R12
//     and R15, so RDI, RSI, R8, R9, R10 and R13 keep what the trampoline
//     loaded, and RSP is never moved: no stack is used but the return
//     address RET pops;
//   - every frame operand lies inside its function's frame, every global
//     operand inside the globals, and the exits write only the context's
//     exit, pc and budget;
//   - every linear-memory operand, [RSI+RAX], follows its bounds check
//     inside the same register instruction with RAX unchanged since:
//     CMP RAX, R8 and JAE for a byte, CMP RAX, R13 and JAE for 8 bytes;
//   - every IDIV RCX divides by a value proved neither 0 nor -1 inside
//     the same register instruction, since either faults in foreign
//     code: a constant (a MOV immediate, or two joined by OR, the split
//     form), or the guard TEST RCX, RCX; JE; then CMP RCX, -1 and, with
//     no flag written in between, CMOVE RCX, RDX from a constant RDX.

// errCheck reports a buffer the checker refuses.
var errCheck = errors.New("asvm: native code refused")

// xinst is one decoded instruction.
type xinst struct {
	off, n int
	opc    uint16 // 0x0Fxx for the two-byte map
	w      bool   // REX.W
	reg    int    // ModRM reg field (register or opcode extension), or the B8+r register
	m      mop    // the r/m operand, when the form has one
	hasM   bool
	target int   // jump target
	imm    int64 // the immediate, as the instruction extends it
}

// form is what the decoder accepts of an opcode: whether it has a ModRM
// byte, the immediate that follows it, and what REX.W must be (0: must
// be clear, 1: must be set, 2: either).
type form struct {
	modrm bool
	imm   int
	w     uint8
}

// forms are the opcodes the emitter writes with a fixed form; MOV
// r, imm (B8+r), CMOVcc, Jcc and SETcc are decoded by range.
var forms = map[uint16]form{
	0x03: {true, 0, 1}, 0x0B: {true, 0, 1}, 0x23: {true, 0, 1}, 0x2B: {true, 0, 1},
	0x33: {true, 0, 1}, 0x3B: {true, 0, 1}, 0x85: {true, 0, 1},
	0x81: {true, 4, 1}, 0x69: {true, 4, 1}, 0xC1: {true, 1, 1}, 0xD3: {true, 0, 1},
	0xC7: {true, 4, 1}, 0xF7: {true, 0, 1}, 0x88: {true, 0, 0}, 0x89: {true, 0, 1},
	0x8B: {true, 0, 1}, 0x99: {false, 0, 1}, 0xC3: {false, 0, 0}, 0xE9: {false, 4, 0},
	0x0FAF: {true, 0, 1}, 0x0FB6: {true, 0, 0},
}

// decode decodes the instruction at b[i:].
func decode(b []byte, i int) (xinst, error) {
	in := xinst{off: i}
	p := i
	next := func() (byte, error) {
		if p >= len(b) {
			return 0, fmt.Errorf("%w: truncated instruction at %#x", errCheck, i)
		}
		p++
		return b[p-1], nil
	}
	c, err := next()
	if err != nil {
		return in, err
	}
	var rex byte
	if c&0xF0 == 0x40 {
		rex = c
		if c, err = next(); err != nil {
			return in, err
		}
	}
	in.w = rex&8 != 0
	in.opc = uint16(c)
	if c == 0x0F {
		if c, err = next(); err != nil {
			return in, err
		}
		in.opc = 0x0F00 | uint16(c)
	}
	f, ok := forms[in.opc]
	switch {
	case ok:
	case in.opc >= 0xB8 && in.opc <= 0xBF: // MOV r, imm32 / imm64
		in.reg = int(in.opc&7) | int(rex&1)<<3
		in.opc = 0xB8
		f = form{imm: 4, w: 2}
		if in.w {
			f.imm = 8
		}
		if rex&^9 != 0x40 && rex != 0 {
			return in, fmt.Errorf("%w: prefix %#x on mov imm at %#x", errCheck, rex, i)
		}
	case in.opc&0xFFF0 == 0x0F40: // CMOVcc
		f = form{true, 0, 1}
	case in.opc&0xFFF0 == 0x0F80: // Jcc rel32
		f = form{false, 4, 0}
	case in.opc&0xFFF0 == 0x0F90: // SETcc
		f = form{true, 0, 0}
	default:
		return in, fmt.Errorf("%w: unknown opcode %#x at %#x", errCheck, in.opc, i)
	}
	if f.w != 2 && in.w != (f.w == 1) {
		return in, fmt.Errorf("%w: opcode %#x at %#x with REX.W %v", errCheck, in.opc, i, in.w)
	}
	if !f.modrm && in.opc != 0xB8 && rex&7 != 0 {
		return in, fmt.Errorf("%w: REX %#x on opcode %#x at %#x", errCheck, rex, in.opc, i)
	}
	if f.modrm {
		mr, err := next()
		if err != nil {
			return in, err
		}
		in.hasM = true
		in.reg = int(mr>>3&7) | int(rex>>2&1)<<3
		rm := int(mr&7) | int(rex&1)<<3
		switch mod := mr >> 6; {
		case mod == 3 && rex&2 == 0:
			in.m = reg(rm)
		case mod == 2 && mr&7 != 4 && rex&2 == 0:
			var d [4]byte
			for k := range d {
				if d[k], err = next(); err != nil {
					return in, err
				}
			}
			in.m = mop{kind: mDisp, base: rm, disp: int32(binary.LittleEndian.Uint32(d[:]))}
		case mod == 0 && mr&7 == 4:
			sib, err := next()
			if err != nil {
				return in, err
			}
			base, index := int(sib&7)|int(rex&1)<<3, int(sib>>3&7)|int(rex>>1&1)<<3
			if sib>>6 != 0 || sib&7 == 5 || index == xSP {
				return in, fmt.Errorf("%w: SIB %#x at %#x", errCheck, sib, i)
			}
			in.m = mop{kind: mIndex, base: base, index: index}
		default:
			return in, fmt.Errorf("%w: ModRM %#x at %#x", errCheck, mr, i)
		}
	}
	var imm [8]byte
	for k := 0; k < f.imm; k++ {
		if imm[k], err = next(); err != nil {
			return in, err
		}
	}
	in.n = p - i
	switch f.imm {
	case 1:
		in.imm = int64(int8(imm[0]))
	case 4:
		in.imm = int64(int32(binary.LittleEndian.Uint32(imm[:4])))
		if in.opc == 0xB8 { // MOV r32, imm32 zero-extends
			in.imm = int64(uint32(in.imm))
		}
	case 8:
		in.imm = int64(binary.LittleEndian.Uint64(imm[:]))
	}
	if in.opc == 0xE9 || in.opc&0xFFF0 == 0x0F80 {
		in.target = p + int(in.imm)
	}
	return in, nil
}

// keepsFlags reports whether the instruction leaves RFLAGS as it was:
// the moves, CQO, CMOVcc and SETcc. The checker takes every other form
// to write them.
func (in *xinst) keepsFlags() bool {
	switch op := in.opc; {
	case op == 0x88, op == 0x89, op == 0x8B, op == 0xB8, op == 0xC7, op == 0x0FB6, op == 0x99:
		return true
	case op&0xFFF0 == 0x0F40, op&0xFFF0 == 0x0F90:
		return true
	}
	return false
}

// divisor is what the code has proved of the IDIV divisor, RCX, since
// its register instruction began: which registers hold known constants,
// and how far the guard has come.
type divisor struct {
	known   [16]bool
	value   [16]int64
	tested  bool // the last instruction was TEST RCX, RCX
	nonzero bool // a JE right after that test has let only RCX != 0 by
	isM1    bool // RFLAGS hold CMP RCX, -1, RCX unchanged since
	safe    bool // the guard's CMOVE replaced a -1 by a safe constant
}

// divisorOK reports whether a divisor of v neither traps nor overflows.
func divisorOK(v int64) bool { return v != 0 && v != -1 }

// step advances d over in and refuses an IDIV RCX whose divisor it has
// not proved.
func (d *divisor) step(in *xinst) error {
	tested := false
	switch m := in.m; {
	case in.opc == 0xF7 && in.reg == 7:
		if !d.safe && !(d.known[xCX] && divisorOK(d.value[xCX])) {
			return errors.New("IDIV by a divisor not proved to be neither 0 nor -1")
		}
	case in.opc == 0x85 && in.reg == xCX && m == reg(xCX):
		tested = true
	case in.opc == 0x0F84 && d.tested:
		d.nonzero = true
	}
	isM1 := in.opc == 0x81 && in.reg == 7 && in.m == reg(xCX) && in.imm == -1
	w := in.writes()
	switch {
	case in.opc == 0xB8:
		d.known[w], d.value[w] = true, in.imm
	case in.opc == 0xC7 && w >= 0:
		d.known[w], d.value[w] = true, in.imm
	case in.opc == 0x0B && in.m.kind == mReg && d.known[w] && d.known[in.m.reg]:
		d.value[w] |= d.value[in.m.reg]
	case in.opc == 0x0F44 && w == xCX && in.m == reg(xDX) && d.isM1 && d.nonzero &&
		d.known[xDX] && divisorOK(d.value[xDX]):
		d.safe = true
		w = -1 // RCX now holds what the guard proved
	case w >= 0:
		d.known[w] = false
	}
	if in.opc == 0xF7 && in.reg == 7 || in.opc == 0x99 {
		d.known[xDX] = false // IDIV and CQO write RDX too
	}
	if w == xCX {
		d.nonzero, d.safe, d.isM1 = false, false, false
	}
	if !in.keepsFlags() {
		d.isM1 = isM1
	}
	d.tested = tested
	return nil
}

// writes returns the register in writes, or -1; an F7 /7 (IDIV) also
// writes RDX, and 99 (CQO) writes only it.
func (in *xinst) writes() int {
	switch op := in.opc; {
	case op == 0x03 || op == 0x0B || op == 0x23 || op == 0x2B || op == 0x33 ||
		op == 0x8B || op == 0x69 || op == 0x0FAF || op == 0x0FB6 || op&0xFFF0 == 0x0F40:
		return in.reg
	case op == 0xB8:
		return in.reg
	case op == 0x99:
		return xDX
	case op == 0xF7 && in.reg == 7:
		return xAX
	case op == 0x81 && in.reg == 7, op == 0x85, op == 0x3B, op == 0xC3, op == 0xE9, op&0xFFF0 == 0x0F80:
		return -1
	}
	// 81, 89, 88, C7, C1, D3, F7 /3, SETcc: the r/m operand, if a register.
	if in.m.kind == mReg {
		return in.m.reg
	}
	return -1
}

// groupExts are the ModRM opcode extensions (/digit) the emitter writes
// for each opcode that has them.
var groupExts = map[uint16][]int{
	0x81: {0, 1, 4, 5, 6, 7}, 0xC1: {4, 7}, 0xD3: {4, 7}, 0xC7: {0}, 0xF7: {3, 7},
}

// shape refuses the opcode extensions and operands no emitted form
// uses: each ModRM opcode extension is one the emitter writes, and the
// operators that only ever apply to a register do.
func (in *xinst) shape() error {
	if want, ok := groupExts[in.opc]; ok && !slices.Contains(want, in.reg) {
		return fmt.Errorf("opcode %#x /%d", in.opc, in.reg)
	}
	regOnly := in.opc == 0xC1 || in.opc == 0xD3 || in.opc == 0xF7 || in.opc&0xFFF0 == 0x0F90 || in.opc&0xFFF0 == 0x0F40
	switch {
	case regOnly && in.m.kind != mReg:
		return fmt.Errorf("opcode %#x on memory", in.opc)
	case in.opc&0xFFF0 == 0x0F90 && (in.reg != 0 || in.m.reg > xBX):
		return fmt.Errorf("SETcc of register %d", in.m.reg)
	case in.opc == 0xF7 && in.reg == 7 && in.m.reg != xCX:
		return fmt.Errorf("IDIV by register %d", in.m.reg)
	case in.opc == 0x88 && in.m.kind == mReg:
		return fmt.Errorf("byte move between registers")
	}
	return nil
}

// writable are the registers the code may write.
var writable = [16]bool{xAX: true, xCX: true, xDX: true, xBX: true, x11: true, x12: true, x15: true}

// checkNative checks text, the code emitted from c with off[pc] the
// start of register instruction pc and at[pc] where Go enters it to
// resume there, for a program with globals globals.
func checkNative(text []byte, off, at []uint32, c *compiled, globals int) error {
	fail := func(at int, format string, args ...any) error {
		return fmt.Errorf("%w: at %#x: %s", errCheck, at, fmt.Sprintf(format, args...))
	}
	if i := ForbiddenAt(text); i >= 0 {
		return fail(i, "forbidden byte sequence % x", text[i:i+3])
	}
	if len(off) != len(c.code) || len(at) != len(c.code) || len(c.funcs) == 0 || len(text) == 0 {
		return fail(0, "no code")
	}
	// Where instructions start, and which starts are register
	// instructions' (resume points) and block entries (jump targets).
	const (
		isStart = 1 << iota
		isResume
		isEntry
	)
	marks := make([]uint8, len(text)+1)
	for pc, o := range off {
		if int(o) >= len(text) || pc > 0 && o < off[pc-1] {
			return fail(int(o), "register pc %d out of order", pc)
		}
		marks[o] |= isResume
	}
	for _, f := range c.funcs {
		marks[off[f.entry]] |= isEntry
	}
	for pc, ins := range c.code {
		if isBranch(ins.op) {
			marks[off[ins.a]] |= isEntry
		}
		if exitsOrEnds(ins.op) && pc+1 < len(off) {
			marks[off[pc+1]] |= isEntry
		}
	}
	if off[c.funcs[0].entry] != 0 {
		return fail(0, "the first function does not start the buffer")
	}

	// funcRange returns the byte range of the function holding offset o.
	funcRange := func(o int) (lo, hi int) {
		lo, hi = 0, len(text)
		for _, f := range c.funcs {
			if e := int(off[f.entry]); e <= o {
				lo = e
			} else {
				return lo, e
			}
		}
		return lo, hi
	}
	// A jump is at least five bytes long (E9 rel32), so jumps never
	// grows: the check's allocations do not depend on the code's length.
	type jump struct{ off, target int }
	jumps := make([]jump, 0, len(text)/5)
	fi, fend := -1, 0
	const (
		unchecked = 0
		byteOK    = 1
		qwordOK   = 8
	)
	bound, pending := unchecked, unchecked
	var div divisor
	prevEnds := true // the previous instruction never falls through
	var in xinst
	for i := 0; i < len(text); i += in.n {
		var err error
		if in, err = decode(text, i); err != nil {
			return err
		}
		marks[i] |= isStart
		if i >= fend {
			fi++
			if fi >= len(c.funcs) || int(off[c.funcs[fi].entry]) != i {
				return fail(i, "function boundary")
			}
			if !prevEnds {
				return fail(i, "falls into function %d", fi)
			}
			fend = len(text)
			if fi+1 < len(c.funcs) {
				fend = int(off[c.funcs[fi+1].entry])
			}
		}
		if marks[i]&isResume != 0 || prevEnds {
			bound = unchecked
			div = divisor{}
		}
		if prevEnds {
			marks[i] |= isEntry // an exit stub
		}
		if in.hasM {
			switch m := in.m; {
			case m.kind == mReg:
			case m.kind == mDisp && m.base == regFrame:
				if !in.w || m.disp < 0 || m.disp%8 != 0 || int64(m.disp) >= 8*int64(c.funcs[fi].frame) {
					return fail(i, "frame operand %#x outside function %d's %d registers", m.disp, fi, c.funcs[fi].frame)
				}
			case m.kind == mDisp && m.base == regGlobals:
				if !in.w || m.disp < 0 || m.disp%8 != 0 || int64(m.disp) >= 8*int64(globals) {
					return fail(i, "global operand %#x outside %d globals", m.disp, globals)
				}
			case m.kind == mDisp && m.base == regCtx:
				if in.opc != 0x89 || m.disp != ctxExit && m.disp != ctxPC && m.disp != ctxBudget {
					return fail(i, "context operand %#x", m.disp)
				}
			case m.kind == mIndex && m.base == regMem && m.index == xAX:
				need := qwordOK
				switch {
				case in.opc == 0x88 || in.opc == 0x0FB6:
					need = byteOK
				case in.opc != 0x8B && in.opc != 0x89:
					return fail(i, "opcode %#x on linear memory", in.opc)
				}
				if bound < need {
					return fail(i, "linear-memory access without its bounds check")
				}
			default:
				return fail(i, "memory operand %+v", m)
			}
		}
		if err := in.shape(); err != nil {
			return fail(i, "%v", err)
		}
		if r := in.writes(); r >= 0 && !writable[r] {
			return fail(i, "writes register %d", r)
		}
		if err := div.step(&in); err != nil {
			return fail(i, "%v", err)
		}
		// The bounds state: a CMP RAX, R8 or CMP RAX, R13 arms it, the
		// JAE right after sets it, and a write of RAX clears it.
		switch {
		case in.opc == 0x3B && in.reg == xAX && in.m == reg(regLen):
			pending = byteOK
		case in.opc == 0x3B && in.reg == xAX && in.m == reg(regLen7):
			pending = qwordOK
		default:
			if in.opc == 0x0F83 && pending != unchecked {
				bound = pending
			}
			pending = unchecked
		}
		if in.writes() == xAX {
			bound = unchecked
		}
		if in.opc == 0xE9 || in.opc&0xFFF0 == 0x0F80 {
			jumps = append(jumps, jump{in.off, in.target})
		}
		prevEnds = in.opc == 0xE9 || in.opc == 0xC3
	}
	if !prevEnds {
		return fail(len(text), "the code runs off its end")
	}
	if fi != len(c.funcs)-1 {
		return fail(len(text), "%d functions, %d found", len(c.funcs), fi+1)
	}
	for _, o := range off {
		if marks[o]&isStart == 0 {
			return fail(int(o), "register instruction starts inside a machine instruction")
		}
	}
	for pc, o := range at {
		lo, hi := funcRange(int(off[pc]))
		if int(o) < lo || int(o) >= hi || marks[o]&isStart == 0 || o != off[pc] && marks[o]&isEntry == 0 {
			return fail(int(o), "entry for register pc %d is not an instruction or stub of its function", pc)
		}
	}
	for _, j := range jumps {
		lo, hi := funcRange(j.off)
		if j.target < lo || j.target >= hi || marks[j.target]&isStart == 0 || marks[j.target]&isEntry == 0 {
			return fail(j.off, "jump to %#x, not a block entry or exit stub of its function", j.target)
		}
	}
	return nil
}
