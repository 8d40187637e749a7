// Package scan implements the threat-model tooling of paper §6: before a
// workflow starts, every user-supplied function image is scanned for
// blacklisted instructions (wrpkru, syscall, sysenter, int on x86; the
// analogous escape hatches here), and images that only *accidentally*
// contain a forbidden byte pattern inside an immediate are rewritten the
// way ERIM does — splitting the immediate so the pattern can no longer
// form — instead of being rejected.
//
// In this reproduction the "binary image" is an ASVM program. Two checks
// apply:
//
//  1. Structural: the program must not invoke host imports outside the
//     allowlist the platform grants it (the analogue of "the image must
//     not contain syscall instructions" — an ASVM guest's only escape
//     hatch is OpHost).
//  2. Byte-pattern: immediates must not contain the WRPKRU signature
//     (0x0F 0x01 0xEF). On x86 an attacker could jump into the middle of
//     an instruction whose immediate encodes wrpkru; the ERIM rewrite
//     splits such immediates into two benign halves. We reproduce both
//     the detection and the rewrite on ASVM push immediates.
package scan

import (
	"errors"
	"fmt"

	"alloystack/internal/asvm"
)

// wrpkruSig is the x86 encoding of WRPKRU (0F 01 EF), the instruction
// that rewrites the protection-key rights register.
var wrpkruSig = [3]byte{0x0F, 0x01, 0xEF}

// Errors reported by the scanner.
var (
	ErrForbiddenImport = errors.New("scan: image invokes a host import outside the allowlist")
	ErrForbiddenBytes  = errors.New("scan: image contains a blacklisted instruction pattern")
)

// Report describes what the scanner found and fixed.
type Report struct {
	// ImmediatesRewritten counts push immediates split by the ERIM-style
	// rewrite.
	ImmediatesRewritten int
	// DataPatched counts data-segment occurrences masked out.
	DataPatched int
}

// containsSig reports whether the little-endian byte representation of v
// contains the WRPKRU signature.
func containsSig(v int64) bool {
	var b [8]byte
	u := uint64(v)
	for i := range b {
		b[i] = byte(u >> (8 * i))
	}
	return indexSig(b[:]) >= 0
}

func indexSig(b []byte) int {
	for i := 0; i+3 <= len(b); i++ {
		if b[i] == wrpkruSig[0] && b[i+1] == wrpkruSig[1] && b[i+2] == wrpkruSig[2] {
			return i
		}
	}
	return -1
}

// Scan validates prog against the import allowlist and reports any
// blacklisted byte patterns without modifying the program.
func Scan(prog *asvm.Program, allowedImports map[string]bool) (*Report, error) {
	rep := &Report{}
	for _, imp := range prog.Imports {
		if !allowedImports[imp.Name] {
			return nil, fmt.Errorf("%w: %s", ErrForbiddenImport, imp.Name)
		}
	}
	for _, f := range prog.Funcs {
		for pc, ins := range f.Code {
			if ins.Op == asvm.OpPush && containsSig(ins.Arg) {
				return nil, fmt.Errorf("%w: %s+%d push immediate %#x",
					ErrForbiddenBytes, f.Name, pc, ins.Arg)
			}
		}
	}
	for i, d := range prog.Data {
		if off := indexSig(d.Bytes); off >= 0 {
			return nil, fmt.Errorf("%w: data segment %d offset %d",
				ErrForbiddenBytes, i, d.Offset+int64(off))
		}
	}
	return rep, nil
}

// Rewrite returns a copy of prog with ERIM-style fixes applied: push
// immediates containing the signature are split into two pushes and an
// OR (so no instruction stream byte range encodes WRPKRU), and data
// segments are rejected (data is not executable here, but the paper's
// conservative scan flags it; callers regenerate such data instead).
// The returned program revalidates cleanly under Scan.
//
//asvet:allow unreachable -- the offline half of the §6 scan (fix an image, then upload it); admission only verifies
func Rewrite(prog *asvm.Program, allowedImports map[string]bool) (*asvm.Program, *Report, error) {
	rep := &Report{}
	for _, imp := range prog.Imports {
		if !allowedImports[imp.Name] {
			return nil, nil, fmt.Errorf("%w: %s", ErrForbiddenImport, imp.Name)
		}
	}
	out := &asvm.Program{
		Imports: append([]asvm.Import(nil), prog.Imports...),
		Globals: prog.Globals,
		MemSize: prog.MemSize,
	}
	for i, d := range prog.Data {
		if indexSig(d.Bytes) >= 0 {
			// Data bytes cannot be split like immediates; mask the
			// middle byte so the pattern cannot form. The guest sees the
			// patched byte — acceptable for the static data of function
			// images, which the platform controls at build time.
			patched := append([]byte(nil), d.Bytes...)
			for {
				off := indexSig(patched)
				if off < 0 {
					break
				}
				patched[off+1] ^= 0xFF
				rep.DataPatched++
			}
			out.Data = append(out.Data, asvm.DataSegment{Offset: d.Offset, Bytes: patched})
			continue
		}
		_ = i
		out.Data = append(out.Data, d)
	}
	for _, f := range prog.Funcs {
		nf := asvm.Func{
			Name: f.Name, NArgs: f.NArgs, NLocals: f.NLocals, Results: f.Results,
		}
		// First pass: compute, for each original pc, its new location,
		// because splitting a push shifts jump targets.
		newPC := make([]int, len(f.Code)+1)
		cur := 0
		for pc, ins := range f.Code {
			newPC[pc] = cur
			if ins.Op == asvm.OpPush && containsSig(ins.Arg) {
				cur += 3 // push lo, push hi<<32-part, or
			} else {
				cur++
			}
		}
		newPC[len(f.Code)] = cur
		// Second pass: emit, splitting immediates and retargeting jumps.
		for _, ins := range f.Code {
			switch {
			case ins.Op == asvm.OpPush && containsSig(ins.Arg):
				lo := ins.Arg & 0xFFFFFFFF
				hi := ins.Arg &^ 0xFFFFFFFF
				// If either half still carries the signature the split
				// point moves inside it; flip to a xor-based split.
				if containsSig(lo) || containsSig(hi) {
					key := int64(0x5A5A5A5A5A5A5A5A)
					nf.Code = append(nf.Code,
						asvm.Instr{Op: asvm.OpPush, Arg: ins.Arg ^ key},
						asvm.Instr{Op: asvm.OpPush, Arg: key},
						asvm.Instr{Op: asvm.OpXor},
					)
				} else {
					nf.Code = append(nf.Code,
						asvm.Instr{Op: asvm.OpPush, Arg: lo},
						asvm.Instr{Op: asvm.OpPush, Arg: hi},
						asvm.Instr{Op: asvm.OpOr},
					)
				}
				rep.ImmediatesRewritten++
			case ins.Op == asvm.OpJmp || ins.Op == asvm.OpJz || ins.Op == asvm.OpJnz:
				nf.Code = append(nf.Code, asvm.Instr{Op: ins.Op, Arg: int64(newPC[ins.Arg])})
			default:
				nf.Code = append(nf.Code, ins)
			}
		}
		out.Funcs = append(out.Funcs, nf)
	}
	if err := out.Validate(); err != nil {
		return nil, nil, err
	}
	if _, err := Scan(out, allowedImports); err != nil {
		return nil, nil, fmt.Errorf("scan: rewrite did not converge: %w", err)
	}
	return out, rep, nil
}

// WASIAllowlist returns the import set AlloyStack grants its guests —
// the WASI adaptation layer plus the custom buffer interfaces (§7.2).
func WASIAllowlist() map[string]bool {
	return map[string]bool{
		"fs_mount": true, "path_open": true, "path_create": true,
		"fd_read": true, "fd_write": true, "fd_seek": true,
		"fd_size": true, "fd_close": true,
		"clock_time_get": true, "proc_stdout": true, "random_get": true,
		"buffer_register": true, "access_buffer": true,
		"slot_send": true, "slot_size": true, "slot_recv": true,
	}
}
