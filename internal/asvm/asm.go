package asvm

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates ASVM assembly into a validated Program. Guest
// benchmark functions for the C and Python tiers are written in this
// dialect; it plays the role WAT plays for WASM.
//
// Grammar (one directive or instruction per line, ';' starts a comment):
//
//	memory <bytes>
//	globals <n>
//	import <name> <arity> <0|1>      ; 0/1: pushes a result
//	data <offset> "<string>"         ; Go-style escapes
//	data <offset> hex <hexbytes>
//	func <name> <nargs> <nlocals> <nresults>
//	  <label>:
//	  <op> [arg]
//	end
//
// Jump targets are labels; call/hostcall arguments are names. push
// accepts decimal, 0x-hex, or a character literal like 'a'.
func Assemble(src string) (*Program, error) {
	p := &Program{}
	importIdx := make(map[string]int)
	funcIdx := make(map[string]int)

	// First pass: collect function names so forward calls resolve.
	for ln, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "func" {
			name := fields[1]
			if _, dup := funcIdx[name]; dup {
				return nil, asmErr(ln, "duplicate function %q", name)
			}
			funcIdx[name] = len(funcIdx)
		}
	}

	var cur *Func
	var labels map[string]int
	var fixups []fixup

	for ln, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "memory":
			if cur != nil {
				return nil, asmErr(ln, "memory directive inside func")
			}
			if len(fields) != 2 {
				return nil, asmErr(ln, "memory wants one integer")
			}
			n, err := parseInt(fields[1])
			if err != nil {
				return nil, asmErr(ln, "memory wants one integer")
			}
			p.MemSize = n
		case "globals":
			if len(fields) != 2 {
				return nil, asmErr(ln, "globals wants one integer")
			}
			n, err := parseInt(fields[1])
			if err != nil {
				return nil, asmErr(ln, "bad globals count")
			}
			p.Globals = int(n)
		case "import":
			if len(fields) != 4 {
				return nil, asmErr(ln, "import wants: name arity hasresult")
			}
			arity, err1 := parseInt(fields[2])
			hasRes, err2 := parseInt(fields[3])
			if err1 != nil || err2 != nil {
				return nil, asmErr(ln, "bad import arity/result")
			}
			importIdx[fields[1]] = len(p.Imports)
			p.Imports = append(p.Imports, Import{
				Name: fields[1], Arity: int(arity), HasResult: hasRes != 0,
			})
		case "data":
			seg, err := parseData(line)
			if err != nil {
				return nil, asmErr(ln, "%v", err)
			}
			p.Data = append(p.Data, seg)
		case "func":
			if cur != nil {
				return nil, asmErr(ln, "nested func")
			}
			if len(fields) != 5 {
				return nil, asmErr(ln, "func wants: name nargs nlocals nresults")
			}
			nargs, e1 := parseInt(fields[2])
			nlocals, e2 := parseInt(fields[3])
			nres, e3 := parseInt(fields[4])
			if e1 != nil || e2 != nil || e3 != nil {
				return nil, asmErr(ln, "bad func header")
			}
			cur = &Func{
				Name: fields[1], NArgs: int(nargs),
				NLocals: int(nlocals), Results: int(nres),
			}
			labels = make(map[string]int)
			fixups = nil
		case "end":
			if cur == nil {
				return nil, asmErr(ln, "end outside func")
			}
			for _, fx := range fixups {
				target, ok := labels[fx.label]
				if !ok {
					return nil, asmErr(fx.line, "undefined label %q", fx.label)
				}
				cur.Code[fx.pc].Arg = int64(target)
			}
			p.Funcs = append(p.Funcs, *cur)
			cur = nil
		default:
			if cur == nil {
				return nil, asmErr(ln, "instruction outside func: %s", fields[0])
			}
			// Label?
			if strings.HasSuffix(fields[0], ":") && len(fields) == 1 {
				name := strings.TrimSuffix(fields[0], ":")
				if _, dup := labels[name]; dup {
					return nil, asmErr(ln, "duplicate label %q", name)
				}
				labels[name] = len(cur.Code)
				continue
			}
			ins, fx, err := parseInstr(ln, fields, importIdx, funcIdx)
			if err != nil {
				return nil, err
			}
			if fx != nil {
				fx.pc = len(cur.Code)
				fixups = append(fixups, *fx)
			}
			cur.Code = append(cur.Code, ins)
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("asvm: missing end for func %s", cur.Name)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustAssemble panics on assembly errors; for package-level programs.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

type fixup struct {
	pc    int
	label string
	line  int
}

var mnemonics = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

// hasArg reports ops that take an immediate operand.
func hasArg(op Op) bool {
	switch op {
	case OpPush, OpLocalGet, OpLocalSet, OpGlobalGet, OpGlobalSet,
		OpJmp, OpJz, OpJnz, OpCall, OpHost:
		return true
	}
	return false
}

func parseInstr(ln int, fields []string, imports, funcs map[string]int) (Instr, *fixup, error) {
	op, ok := mnemonics[fields[0]]
	if !ok {
		return Instr{}, nil, asmErr(ln, "unknown mnemonic %q", fields[0])
	}
	if !hasArg(op) {
		if len(fields) != 1 {
			return Instr{}, nil, asmErr(ln, "%s takes no operand", fields[0])
		}
		return Instr{Op: op}, nil, nil
	}
	if len(fields) != 2 {
		return Instr{}, nil, asmErr(ln, "%s wants one operand", fields[0])
	}
	arg := fields[1]
	switch op {
	case OpJmp, OpJz, OpJnz:
		return Instr{Op: op}, &fixup{label: arg, line: ln}, nil
	case OpCall:
		fi, ok := funcs[arg]
		if !ok {
			return Instr{}, nil, asmErr(ln, "call to unknown function %q", arg)
		}
		return Instr{Op: op, Arg: int64(fi)}, nil, nil
	case OpHost:
		ii, ok := imports[arg]
		if !ok {
			return Instr{}, nil, asmErr(ln, "hostcall to undeclared import %q", arg)
		}
		return Instr{Op: op, Arg: int64(ii)}, nil, nil
	default:
		v, err := parseInt(arg)
		if err != nil {
			return Instr{}, nil, asmErr(ln, "bad operand %q: %v", arg, err)
		}
		return Instr{Op: op, Arg: v}, nil, nil
	}
}

func parseInt(s string) (int64, error) {
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		r, err := strconv.Unquote(s)
		if err != nil || len(r) != 1 {
			return 0, errors.New("bad char literal")
		}
		return int64(r[0]), nil
	}
	return strconv.ParseInt(s, 0, 64)
}

func parseData(line string) (DataSegment, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "data"))
	sp := strings.IndexAny(rest, " \t")
	if sp < 0 {
		return DataSegment{}, errors.New("data wants: offset payload")
	}
	off, err := parseInt(rest[:sp])
	if err != nil {
		return DataSegment{}, fmt.Errorf("bad data offset: %v", err)
	}
	payload := strings.TrimSpace(rest[sp+1:])
	if strings.HasPrefix(payload, "hex ") {
		b, err := hex.DecodeString(strings.TrimSpace(strings.TrimPrefix(payload, "hex ")))
		if err != nil {
			return DataSegment{}, fmt.Errorf("bad hex data: %v", err)
		}
		return DataSegment{Offset: off, Bytes: b}, nil
	}
	if strings.HasPrefix(payload, `"`) {
		s, err := strconv.Unquote(payload)
		if err != nil {
			return DataSegment{}, fmt.Errorf("bad string data: %v", err)
		}
		return DataSegment{Offset: off, Bytes: []byte(s)}, nil
	}
	return DataSegment{}, errors.New("data payload must be a string or hex")
}

func stripComment(line string) string {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		return line[:i]
	}
	return line
}

func asmErr(line int, format string, args ...any) error {
	return fmt.Errorf("asvm: line %d: %s", line+1, fmt.Sprintf(format, args...))
}
