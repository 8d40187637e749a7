package scan

// verify.go is the static ASVM bytecode verifier: the guest-side
// counterpart of cmd/asvet's host-side analyzers. Before a workflow is
// admitted, every ASVM function image it stages is proven safe by
// construction — control flow lands only on real instruction
// boundaries, the operand stack can never underflow or arrive at a
// join with two different shapes, and the only host imports reachable
// from the code are the ones on the platform allowlist. This is the
// validate-before-execute discipline WASM engines apply (and the paper
// relies on in §6): the runtime then never needs to trust a guest not
// to do these things, because a guest that could has no way through
// admission.

import (
	"errors"
	"fmt"
	"sort"

	"alloystack/internal/asvm"
)

// Typed verifier rejections, all wrapping ErrVerify so callers can
// classify "statically rejected" with a single errors.Is.
var (
	// ErrVerify is the common ancestor of every verifier rejection.
	ErrVerify = errors.New("scan: program failed static verification")
	// ErrBadJump marks a branch whose target is outside the function's
	// code (the ASVM analogue of jumping into the middle of an x86
	// instruction).
	ErrBadJump = fmt.Errorf("%w: jump target outside function code", ErrVerify)
	// ErrStackUnderflow marks an instruction that pops more values than
	// any path can have pushed.
	ErrStackUnderflow = fmt.Errorf("%w: instruction underflows the operand stack", ErrVerify)
	// ErrStackShape marks a control-flow join reached with two different
	// stack depths — the program's stack effect is path-dependent and
	// its behaviour cannot be bounded statically.
	ErrStackShape = fmt.Errorf("%w: inconsistent stack depth at control-flow join", ErrVerify)
	// ErrStackLeak marks a return whose stack depth disagrees with the
	// function's declared result count: values would leak into (or be
	// stolen from) the caller's frame on the shared value stack.
	ErrStackLeak = fmt.Errorf("%w: stack depth at return does not match declared results", ErrVerify)
)

// FuncReport summarises one verified function for operators
// (`asctl scan` prints it) and for tests.
type FuncReport struct {
	Name string
	// Blocks is the number of basic blocks in the function's CFG.
	Blocks int
	// MaxStack is the statically proven worst-case operand stack depth.
	MaxStack int
	// Imports lists the host imports this function's code can invoke,
	// sorted by name.
	Imports []string
}

// VerifyReport is the full verdict for a program that passed.
type VerifyReport struct {
	// Scan carries the byte-pattern scanner's findings (always zero
	// rewrites — Verify rejects rather than rewrites).
	Scan *Report
	// Funcs has one entry per program function, in program order.
	Funcs []FuncReport
}

// MaxStack returns the deepest operand stack any function can reach.
func (r *VerifyReport) MaxStack() int {
	max := 0
	for _, f := range r.Funcs {
		if f.MaxStack > max {
			max = f.MaxStack
		}
	}
	return max
}

// Verify statically proves prog safe to admit: structural validity,
// no blacklisted byte patterns, imports within allowlist, and for every
// function a CFG whose operand-stack effect is well-defined on all
// paths. It is the check visors run at workflow admission; a non-nil
// error always wraps ErrVerify, ErrForbiddenImport or
// ErrForbiddenBytes.
func Verify(prog *asvm.Program, allowedImports map[string]bool) (*VerifyReport, error) {
	if err := prog.Validate(); err != nil {
		return nil, verdict(err)
	}
	scanRep, err := Scan(prog, allowedImports)
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{Scan: scanRep, Funcs: make([]FuncReport, len(prog.Funcs))}
	for fi := range prog.Funcs {
		// The stack-shape dataflow is asvm's: the AOT engine lowers
		// verified code on the strength of the same result.
		shape, err := asvm.StackShape(prog, fi)
		if err != nil {
			return nil, verdict(err)
		}
		f := &prog.Funcs[fi]
		rep.Funcs[fi] = FuncReport{
			Name: f.Name, Blocks: shape.Blocks, MaxStack: shape.MaxStack,
			Imports: reachableImports(prog, f, shape),
		}
	}
	return rep, nil
}

// verdict turns a failed validation or shape analysis into the
// verifier's typed rejection.
func verdict(err error) error {
	var se *asvm.ShapeError
	if !errors.As(err, &se) {
		return fmt.Errorf("%w: %v", ErrVerify, err)
	}
	kind := map[asvm.ShapeKind]error{
		asvm.ShapeBadJump:   ErrBadJump,
		asvm.ShapeUnderflow: ErrStackUnderflow,
		asvm.ShapeJoin:      ErrStackShape,
		asvm.ShapeLeak:      ErrStackLeak,
	}[se.Kind]
	return fmt.Errorf("%w: %s", kind, se.Detail)
}

// reachableImports names the host imports f's reachable code invokes,
// sorted.
func reachableImports(prog *asvm.Program, f *asvm.Func, shape *asvm.FuncShape) []string {
	seen := map[string]bool{}
	names := []string{}
	for pc, ins := range f.Code {
		if ins.Op != asvm.OpHost || shape.Depth[pc] < 0 {
			continue
		}
		if name := prog.Imports[ins.Arg].Name; !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
