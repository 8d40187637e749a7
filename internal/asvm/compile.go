package asvm

import "fmt"

// compile.go lowers verified stack bytecode to the AOT engine's register
// code. A frame is NLocals+MaxStack registers: locals first, then one
// register per operand-stack slot, which is sound because StackShape
// proves a single depth at every instruction. Within a basic block the
// lowering keeps a symbolic operand stack (constants, locals and slots
// that have not been copied anywhere yet), so `local.get; push; add;
// local.set` becomes one local-with-immediate instruction, a compare
// feeding a branch becomes one compare-and-branch, `x | (r == k)` becomes
// one or-of-equality, and an address add feeding a load or store becomes
// its base+offset. At every block boundary the symbolic stack is written
// back to its slots. A backward jump to a header holding nothing but a
// compare-and-branch is rotated into that branch, inverted, and absorbs
// the latch's closing in-place increment of a register it compares: a
// loop closes in one dispatch.

// rop is a register-code opcode.
type rop uint16

const (
	ropMovI      rop = iota // r[a] = imm
	ropMov                  // r[a] = r[b]
	ropSwap                 // r[a], r[b] = r[b], r[a]
	ropGlobalGet            // r[a] = globals[c]
	ropGlobalSet            // globals[c] = r[b]
	ropLoad8                // r[a] = mem[r[b]+imm]
	ropLoad64
	ropStore8 // mem[r[b]+imm] = r[c]
	ropStore64
	ropMemSize // r[a] = len(mem)
	ropMemGrow // r[a] = grow(r[b])
	ropMemCopy // copy(mem[r[a]:], mem[r[b]:][:r[c]])
	ropHost    // r[a] = hosts[c](r[b : b+arity]); a < 0: no result

	// Block terminators: each carries in n the source instructions of
	// the block it ends, charged to fuel and Steps when it executes.
	ropCharge // falls through into a branch target
	ropJmp    // pc = a
	ropBrZ    // if r[b] == 0 { pc = a }
	ropBrNZ
	ropCall // enter funcs[b] with its frame at r[a:]; c operands stay below
	ropRet  // r[0] = r[b] unless b < 0; return
	ropHalt // stop the program; its value is r[b], or the caller's top if b < 0

	// The sixteen binary operators in Op order from OpAdd, then the
	// same with an immediate right operand.
	ropAdd                     // r[a] = r[b] op r[c]
	ropAddI = ropAdd + nBinops // r[a] = r[b] op imm

	// The six comparisons in Op order from OpEq, fused with a branch.
	ropBrEq  = ropAddI + nBinops   // if r[b] op r[c] { pc = a }
	ropBrEqI = ropBrEq + nCompares // if r[b] op imm { pc = a }
	// The same six, after an in-place add: r[b] += imm; if r[b] op r[c] { pc = a }
	ropIncBrEq = ropBrEqI + nCompares

	ropOrEqI = ropIncBrEq + nCompares // r[a] = r[b] | (r[c] == imm)

	nBinops   = rop(OpGeS - OpAdd + 1)
	nCompares = rop(OpGeS - OpEq + 1)
)

// rinstr is one register-code instruction.
type rinstr struct {
	op      rop
	n       int32 // see the block terminators
	a, b, c int32
	imm     int64
}

// cfunc is one lowered function.
type cfunc struct {
	entry          int32 // index of its first instruction in compiled.code
	nargs, nlocals int32
	frame          int32 // registers in its frame
	maxStack       int32
	// extent is how many registers past its base a call can reach
	// through the deepest acyclic chain of calls below it, and depth the
	// length of that chain; recursion is left to grow at run time.
	extent, depth int32
}

// compiled is a Program lowered for EngineAOT. Immutable once built.
type compiled struct {
	code  []rinstr
	funcs []cfunc
	// arena and depth size a new instance's frame arena and call stack
	// so that a program without recursion never grows either.
	arena, depth int
	// maxBlock is the most source instructions one terminator charges
	// (a rotated latch charges its header's too): how far fuel
	// exhaustion can lag the interpreter's.
	maxBlock int32
}

// compile returns the program's register code, lowering it on first use.
func (p *Program) compile() (*compiled, error) {
	p.aotOnce.Do(func() {
		p.aot, p.aotErr = lower(p)
		p.lowered.Store(true)
	})
	return p.aot, p.aotErr
}

// Lowered reports whether the AOT lowering has run for this program. It
// runs on the first EngineAOT instantiation and nowhere else — not at
// assembly, registration or admission, which every workload's set-up
// pays whether or not it has a guest — and tests hold it to that.
func (p *Program) Lowered() bool { return p.lowered.Load() }

func lower(p *Program) (*compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &compiled{funcs: make([]cfunc, len(p.Funcs))}
	shapes := make([]*FuncShape, len(p.Funcs))
	for fi := range p.Funcs {
		sh, err := StackShape(p, fi)
		if err != nil {
			return nil, err
		}
		shapes[fi] = sh
		f := &p.Funcs[fi]
		frame := f.NLocals + sh.MaxStack
		if frame == 0 {
			frame = 1 // r[0] always exists
		}
		c.funcs[fi] = cfunc{
			nargs: int32(f.NArgs), nlocals: int32(f.NLocals),
			frame: int32(frame), maxStack: int32(sh.MaxStack),
		}
	}
	for fi := range p.Funcs {
		c.funcs[fi].entry = int32(len(c.code))
		lw := lowerer{prog: p, f: &p.Funcs[fi], sh: shapes[fi], out: c, nl: int32(p.Funcs[fi].NLocals)}
		if err := lw.run(); err != nil {
			return nil, err
		}
	}
	state := make([]uint8, len(c.funcs))
	for fi := range c.funcs {
		c.measure(fi, state)
		c.arena = max(c.arena, int(c.funcs[fi].extent))
		c.depth = max(c.depth, int(c.funcs[fi].depth))
	}
	return c, nil
}

// measure fills funcs[fi].extent and depth by a depth-first walk of the
// call graph; a call back into a function still being walked contributes
// nothing.
func (c *compiled) measure(fi int, state []uint8) {
	const (
		open = 1
		done = 2
	)
	if state[fi] != 0 {
		return
	}
	state[fi] = open
	f := &c.funcs[fi]
	f.extent = f.frame
	end := len(c.code)
	if fi+1 < len(c.funcs) {
		end = int(c.funcs[fi+1].entry)
	}
	for _, ins := range c.code[f.entry:end] {
		if ins.op != ropCall {
			continue
		}
		c.measure(int(ins.b), state)
		if callee := &c.funcs[ins.b]; state[ins.b] == done {
			f.extent = max(f.extent, ins.a+callee.extent)
			f.depth = max(f.depth, 1+callee.depth)
		} else {
			f.extent = max(f.extent, ins.a+callee.frame)
			f.depth = max(f.depth, 1)
		}
	}
	state[fi] = done
}

// operand is one entry of the symbolic operand stack: a constant, or a
// frame register — a local (reg < NLocals), the entry's own slot, or a
// lower slot it duplicates.
type operand struct {
	isConst bool
	reg     int32
	k       int64
}

// lowerer lowers one function.
type lowerer struct {
	prog *Program
	f    *Func
	sh   *FuncShape
	out  *compiled
	nl   int32

	st []operand
	// last is the index of the instruction emitted last in the current
	// block, or -1: the only one a peephole may rewrite.
	last int
	// count is the source instructions seen since the last terminator.
	count int32
}

func (lw *lowerer) slot(depth int) int32 { return lw.nl + int32(depth) }

func (lw *lowerer) emit(ins rinstr) {
	lw.last = len(lw.out.code)
	lw.out.code = append(lw.out.code, ins)
}

// terminate emits a block terminator charged with the block's count.
func (lw *lowerer) terminate(ins rinstr) {
	ins.n = lw.count
	lw.out.maxBlock = max(lw.out.maxBlock, lw.count)
	lw.count = 0
	lw.emit(ins)
	lw.last = -1
}

func (lw *lowerer) push(o operand) { lw.st = append(lw.st, o) }

func (lw *lowerer) pop() operand {
	o := lw.st[len(lw.st)-1]
	lw.st = lw.st[:len(lw.st)-1]
	return o
}

// settle copies entry i of the symbolic stack into its own slot.
func (lw *lowerer) settle(i int) {
	o, s := lw.st[i], lw.slot(i)
	switch {
	case o.isConst:
		lw.emit(rinstr{op: ropMovI, a: s, imm: o.k})
	case o.reg != s:
		lw.emit(rinstr{op: ropMov, a: s, b: o.reg})
	}
	lw.st[i] = operand{reg: s}
}

// settleFrom settles every entry at depth >= from. Lower entries first:
// a duplicate reads a slot below it, which is then already in place.
func (lw *lowerer) settleFrom(from int) {
	for i := from; i < len(lw.st); i++ {
		lw.settle(i)
	}
}

// reg returns a register holding o, which sat at depth d before it was
// popped: its own if it has one, else slot d loaded with the constant.
func (lw *lowerer) reg(o operand, d int) int32 {
	if !o.isConst {
		return o.reg
	}
	lw.emit(rinstr{op: ropMovI, a: lw.slot(d), imm: o.k})
	return lw.slot(d)
}

// producer returns the last instruction if it computed o, popped from
// depth d, into that depth's slot — so nothing else can read its result
// and a peephole may retarget or absorb it.
func (lw *lowerer) producer(o operand, d int) *rinstr {
	if lw.last < 0 || o.isConst || o.reg != lw.slot(d) {
		return nil
	}
	ins := &lw.out.code[lw.last]
	if !writesA(ins.op) || ins.a != o.reg {
		return nil
	}
	return ins
}

// writesA reports whether op's a operand is a destination register.
func writesA(op rop) bool {
	switch op {
	case ropMovI, ropMov, ropGlobalGet, ropLoad8, ropLoad64, ropMemSize, ropMemGrow, ropHost, ropOrEqI:
		return true
	}
	return op >= ropAdd && op < ropBrEq
}

func (lw *lowerer) run() error {
	code := lw.f.Code
	start := make([]int32, len(code)) // source pc -> register pc, at leaders
	var fixups []int                  // branches whose a is still a source pc
	var exits []int                   // rotated latches' exits, whose a is still their header
	live := len(code) == 0            // control can reach the instruction being lowered
	for pc, ins := range code {
		if lw.sh.Leader[pc] {
			if live {
				lw.settleFrom(0)
				if lw.count > 0 {
					lw.terminate(rinstr{op: ropCharge})
				}
			}
			live = lw.sh.Depth[pc] >= 0
			lw.last = -1
			start[pc] = int32(len(lw.out.code))
			lw.st = lw.st[:0]
			for d := 0; d < int(lw.sh.Depth[pc]); d++ {
				lw.push(operand{reg: lw.slot(d)})
			}
		}
		if !live {
			continue
		}
		lw.count++
		switch op := ins.Op; op {
		case OpNop:
		case OpPush:
			lw.push(operand{isConst: true, k: ins.Arg})
		case OpDrop:
			lw.pop()
		case OpDup:
			lw.push(lw.st[len(lw.st)-1])
		case OpSwap:
			lw.swap()
		case OpLocalGet:
			lw.push(operand{reg: int32(ins.Arg)})
		case OpLocalSet:
			lw.localSet(int32(ins.Arg))
		case OpGlobalGet:
			d := len(lw.st)
			lw.emit(rinstr{op: ropGlobalGet, a: lw.slot(d), c: int32(ins.Arg)})
			lw.push(operand{reg: lw.slot(d)})
		case OpGlobalSet:
			v := lw.pop()
			lw.emit(rinstr{op: ropGlobalSet, b: lw.reg(v, len(lw.st)), c: int32(ins.Arg)})
		case OpAdd, OpSub, OpMul, OpDivS, OpRemS, OpAnd, OpOr, OpXor, OpShl, OpShrS,
			OpEq, OpNe, OpLtS, OpGtS, OpLeS, OpGeS:
			lw.binop(op)
		case OpJmp:
			lw.settleFrom(0)
			if t := int(ins.Arg); t <= pc && lw.rotate(start[t]) {
				exits = append(exits, len(lw.out.code)-1)
			} else {
				fixups = append(fixups, len(lw.out.code))
				lw.terminate(rinstr{op: ropJmp, a: int32(ins.Arg)})
			}
			live = false
		case OpJz, OpJnz:
			fixups = append(fixups, lw.branch(op == OpJz, int32(ins.Arg)))
		case OpCall:
			callee := &lw.prog.Funcs[ins.Arg]
			below := len(lw.st) - callee.NArgs
			// Every entry, not only the arguments: a halt over an empty
			// stack in the callee yields the caller's top operand.
			lw.settleFrom(0)
			lw.st = lw.st[:below]
			lw.terminate(rinstr{op: ropCall, a: lw.slot(below), b: int32(ins.Arg), c: int32(below)})
			if callee.Results == 1 {
				lw.push(operand{reg: lw.slot(below)})
			}
		case OpHost:
			imp := lw.prog.Imports[ins.Arg]
			below := len(lw.st) - imp.Arity
			lw.settleFrom(below)
			lw.st = lw.st[:below]
			h := rinstr{op: ropHost, a: -1, b: lw.slot(below), c: int32(ins.Arg)}
			if imp.HasResult {
				h.a = lw.slot(below)
				lw.push(operand{reg: h.a})
			}
			lw.emit(h)
		case OpRet:
			lw.ret()
			live = false
		case OpHalt:
			b := int32(-1)
			if d := len(lw.st); d > 0 {
				b = lw.reg(lw.pop(), d-1)
			}
			lw.terminate(rinstr{op: ropHalt, b: b})
			live = false
		case OpLoad8U, OpLoad64:
			lw.load(ropLoad8 + rop(op-OpLoad8U))
		case OpStore8, OpStore64:
			lw.store(ropStore8 + rop(op-OpStore8))
		case OpMemSize:
			d := len(lw.st)
			lw.emit(rinstr{op: ropMemSize, a: lw.slot(d)})
			lw.push(operand{reg: lw.slot(d)})
		case OpMemGrow:
			d := len(lw.st) - 1
			lw.emit(rinstr{op: ropMemGrow, a: lw.slot(d), b: lw.reg(lw.pop(), d)})
			lw.push(operand{reg: lw.slot(d)})
		case OpMemCopy:
			d := len(lw.st) - 3
			n, src, dst := lw.pop(), lw.pop(), lw.pop()
			lw.emit(rinstr{op: ropMemCopy, a: lw.reg(dst, d), b: lw.reg(src, d+1), c: lw.reg(n, d+2)})
		default:
			return fmt.Errorf("%w: %s+%d: bad opcode %v", ErrValidation, lw.f.Name, pc, op)
		}
	}
	if live {
		lw.ret() // falling off the end is an implicit return, and no step
	}
	for _, at := range fixups {
		ins := &lw.out.code[at]
		ins.a = start[ins.a]
	}
	for _, at := range exits {
		ins := &lw.out.code[at]
		ins.a = lw.out.code[ins.a].a
	}
	return nil
}

// rotate closes a loop whose latch jumps back to register pc h, if the
// header there holds nothing but a compare-and-branch: the latch ends in
// that branch inverted, back into the body after the header, charged with
// both blocks, and falls through into an uncharged jump to the header's
// exit, whose target resolves once the header's own is known. A latch
// that ends by adding an immediate to a register the branch compares, in
// place, loses that add into the branch.
func (lw *lowerer) rotate(h int32) bool {
	code := lw.out.code
	if int(h) >= len(code) || code[h].op < ropBrEq || code[h].op >= ropIncBrEq {
		return false
	}
	hdr := code[h]
	base, op := ropBrEq, OpEq+Op(hdr.op-ropBrEq)
	if hdr.op >= ropBrEqI {
		base, op = ropBrEqI, OpEq+Op(hdr.op-ropBrEqI)
	}
	br := rinstr{op: base, a: h + 1, b: hdr.b, c: hdr.c, imm: hdr.imm}
	op = negated(op)
	if lw.last >= 0 && base == ropBrEq {
		if inc := code[lw.last]; inc.op == ropAddI && inc.a == inc.b && (hdr.b == inc.a || hdr.c == inc.a) {
			if hdr.b != inc.a {
				op, _ = mirrored(op)
				br.b, br.c = hdr.c, hdr.b
			}
			br.op, br.imm = ropIncBrEq, inc.imm
			lw.out.code = code[:lw.last]
		}
	}
	br.op += rop(op - OpEq)
	lw.count += hdr.n
	lw.terminate(br)
	lw.terminate(rinstr{op: ropJmp, a: h})
	return true
}

// ret lowers a return, explicit or by falling off the end.
func (lw *lowerer) ret() {
	b := int32(-1)
	if lw.f.Results == 1 {
		b = lw.reg(lw.pop(), 0)
	}
	lw.terminate(rinstr{op: ropRet, b: b})
}

func (lw *lowerer) swap() {
	d := len(lw.st)
	x, y := &lw.st[d-2], &lw.st[d-1]
	isSlot := func(o *operand) bool { return !o.isConst && o.reg >= lw.nl }
	if isSlot(x) || isSlot(y) {
		lw.settleFrom(d - 2)
		lw.emit(rinstr{op: ropSwap, a: lw.slot(d - 2), b: lw.slot(d - 1)})
		return
	}
	*x, *y = *y, *x
}

func (lw *lowerer) localSet(x int32) {
	v := lw.pop()
	d := len(lw.st)
	pending := false // an entry below still means "local x as it was"
	for i := range lw.st {
		if o := lw.st[i]; !o.isConst && o.reg == x {
			pending = true
		}
	}
	switch p := lw.producer(v, d); {
	case pending:
		for i := range lw.st {
			if o := lw.st[i]; !o.isConst && o.reg == x {
				lw.settle(i)
			}
		}
		fallthrough
	case p == nil:
		if v.isConst {
			lw.emit(rinstr{op: ropMovI, a: x, imm: v.k})
		} else if v.reg != x {
			lw.emit(rinstr{op: ropMov, a: x, b: v.reg})
		}
	default:
		p.a = x
	}
}

// mirrored maps a comparison to the one that holds with its operands
// exchanged; every other commutative operator maps to itself.
func mirrored(op Op) (Op, bool) {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
		return op, true
	case OpLtS:
		return OpGtS, true
	case OpGtS:
		return OpLtS, true
	case OpLeS:
		return OpGeS, true
	case OpGeS:
		return OpLeS, true
	}
	return op, false
}

func (lw *lowerer) binop(op Op) {
	y, x := lw.pop(), lw.pop()
	d := len(lw.st)
	dst := lw.slot(d)
	if x.isConst && y.isConst {
		if v, err := binop(op, x.k, y.k); err == nil {
			lw.push(operand{isConst: true, k: v})
			return
		}
	}
	if x.isConst {
		if m, ok := mirrored(op); ok && !y.isConst {
			op, x, y = m, y, x
		}
	}
	if op == OpOr && !x.isConst {
		// The equality's result is read by this or and nothing else.
		if p := lw.producer(y, d+1); p != nil && p.op == ropAddI+rop(OpEq-OpAdd) {
			*p = rinstr{op: ropOrEqI, a: dst, b: x.reg, c: p.b, imm: p.imm}
			lw.push(operand{reg: dst})
			return
		}
	}
	xr := lw.reg(x, d)
	if y.isConst && !((op == OpDivS || op == OpRemS) && y.k == 0) {
		lw.emit(rinstr{op: ropAddI + rop(op-OpAdd), a: dst, b: xr, imm: y.k})
	} else {
		lw.emit(rinstr{op: ropAdd + rop(op-OpAdd), a: dst, b: xr, c: lw.reg(y, d+1)})
	}
	lw.push(operand{reg: dst})
}

// branch lowers jz/jnz and returns the index of the emitted branch.
func (lw *lowerer) branch(ifZero bool, target int32) int {
	cond := lw.pop()
	d := len(lw.st)
	br := rinstr{op: ropBrNZ, a: target}
	if ifZero {
		br.op = ropBrZ
	}
	if p := lw.producer(cond, d); p != nil && isCompare(p.op) {
		// The compare moves into the branch. Settling the entries below
		// it first is safe: that writes only slots no operand of the
		// compare can name.
		cmp := *p
		lw.out.code = lw.out.code[:lw.last]
		lw.last = -1
		lw.settleFrom(0)
		op := OpAdd + Op(cmp.op-ropAdd)
		br.op = ropBrEq
		if cmp.op >= ropAddI {
			op = OpAdd + Op(cmp.op-ropAddI)
			br.op = ropBrEqI
		}
		if ifZero {
			op = negated(op)
		}
		br.op += rop(op - OpEq)
		br.b, br.c, br.imm = cmp.b, cmp.c, cmp.imm
	} else {
		br.b = lw.reg(cond, d)
		lw.settleFrom(0)
	}
	at := len(lw.out.code)
	lw.terminate(br)
	return at
}

// isCompare reports whether op is a comparison, in either binop form.
func isCompare(op rop) bool {
	const first = rop(OpEq - OpAdd)
	return op >= ropAdd+first && op < ropAddI || op >= ropAddI+first && op < ropBrEq
}

// negated maps a comparison to its complement.
func negated(op Op) Op {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLtS:
		return OpGeS
	case OpGeS:
		return OpLtS
	case OpGtS:
		return OpLeS
	}
	return OpGtS // OpLeS
}

// address resolves an address operand popped from depth d to base+offset,
// absorbing the add-immediate that computed it when nothing else reads
// that result.
func (lw *lowerer) address(addr operand, d int) (base int32, off int64) {
	if p := lw.producer(addr, d); p != nil && p.op == ropAddI {
		base, off = p.b, p.imm
		lw.out.code = lw.out.code[:lw.last]
		lw.last = -1
		return base, off
	}
	return lw.reg(addr, d), 0
}

func (lw *lowerer) load(op rop) {
	d := len(lw.st) - 1
	base, off := lw.address(lw.pop(), d)
	lw.emit(rinstr{op: op, a: lw.slot(d), b: base, imm: off})
	lw.push(operand{reg: lw.slot(d)})
}

func (lw *lowerer) store(op rop) {
	d := len(lw.st) - 2
	v, addr := lw.pop(), lw.pop()
	// A constant value needs a register first, and loading it makes the
	// address add no longer the last instruction: only a value that is
	// already in a register lets the store absorb the add.
	vr := lw.reg(v, d+1)
	base, off := lw.address(addr, d)
	lw.emit(rinstr{op: op, b: base, imm: off, c: vr})
}
