package asvm

import (
	"fmt"
	"strings"
)

// Disassemble renders a program back into assembler syntax accepted by
// Assemble. Jump targets become generated labels, and call/hostcall
// operands are resolved back to names, so the output of Disassemble
// reassembles into an equivalent program — the round trip is pinned by
// tests and makes guest images auditable (the §6 scan story: operators
// can read exactly what an uploaded image does).
//
//asvet:allow unreachable -- the operator's audit view of a guest image and the assemble/disassemble round-trip oracle; no binary prints it yet
func Disassemble(p *Program) string {
	var b strings.Builder
	if p.MemSize > 0 {
		fmt.Fprintf(&b, "memory %d\n", p.MemSize)
	}
	if p.Globals > 0 {
		fmt.Fprintf(&b, "globals %d\n", p.Globals)
	}
	for _, imp := range p.Imports {
		res := 0
		if imp.HasResult {
			res = 1
		}
		fmt.Fprintf(&b, "import %s %d %d\n", imp.Name, imp.Arity, res)
	}
	for _, d := range p.Data {
		fmt.Fprintf(&b, "data %d hex %x\n", d.Offset, d.Bytes)
	}
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		fmt.Fprintf(&b, "func %s %d %d %d\n", f.Name, f.NArgs, f.NLocals, f.Results)

		// Collect branch targets so each gets a label.
		labels := map[int]string{}
		for _, ins := range f.Code {
			switch ins.Op {
			case OpJmp, OpJz, OpJnz:
				t := int(ins.Arg)
				if _, ok := labels[t]; !ok {
					labels[t] = fmt.Sprintf("L%d", t)
				}
			}
		}
		for pc, ins := range f.Code {
			if l, ok := labels[pc]; ok {
				fmt.Fprintf(&b, "%s:\n", l)
			}
			switch {
			case ins.Op == OpJmp || ins.Op == OpJz || ins.Op == OpJnz:
				fmt.Fprintf(&b, "  %s %s\n", ins.Op, labels[int(ins.Arg)])
			case ins.Op == OpCall:
				fmt.Fprintf(&b, "  call %s\n", p.Funcs[ins.Arg].Name)
			case ins.Op == OpHost:
				fmt.Fprintf(&b, "  hostcall %s\n", p.Imports[ins.Arg].Name)
			case hasArg(ins.Op):
				fmt.Fprintf(&b, "  %s %d\n", ins.Op, ins.Arg)
			default:
				fmt.Fprintf(&b, "  %s\n", ins.Op)
			}
		}
		// A trailing label (branch target one past the last instruction)
		// needs an anchor instruction to survive reassembly.
		if l, ok := labels[len(f.Code)]; ok {
			fmt.Fprintf(&b, "%s:\n  nop\n", l)
		}
		b.WriteString("end\n")
	}
	return b.String()
}
