// Package trustflow_raw is a trustflow fixture: an untrusted package
// poking the real mem and mpk packages' raw accessors and PKRU register.
package trustflow_raw

import (
	"alloystack/internal/mem"
	"alloystack/internal/mpk"
)

func rawAccess(sp *mem.Space, ctx *mpk.Context) error {
	buf := make([]byte, 8)
	if err := sp.ReadAt(nil, 0, buf); err != nil { // want "raw alloystack/internal/mem.Space.ReadAt outside the trusted partition"
		return err
	}
	if err := sp.WriteAt(nil, 0, buf); err != nil { // want "raw alloystack/internal/mem.Space.WriteAt outside the trusted partition"
		return err
	}
	_ = sp.Fork()    // want "raw alloystack/internal/mem.Space.Fork outside the trusted partition"
	ctx.WritePKRU(0) // want "raw alloystack/internal/mpk.Context.WritePKRU outside the trusted partition"
	return nil
}

func waived(sp *mem.Space) *mem.Space {
	return sp.Fork() //asvet:allow trustflow -- fixture-approved fork
}

// ungatedFine exercises methods that are NOT gated: reads of metadata
// and the key register stay legal everywhere.
func ungatedFine(sp *mem.Space, ctx *mpk.Context) uint64 {
	_ = ctx.ReadPKRU()
	return sp.Forks()
}

// escapeHatch exercises the value-position escape: binding a gated
// method (or method expression) without calling it smuggles raw power
// past call-site checks and must be flagged.
func escapeHatch(sp *mem.Space) func(mem.Access, uint64, []byte) error {
	f := sp.ReadAt // want "reference to raw alloystack/internal/mem.Space.ReadAt outside the trusted partition .method value escapes the gate."
	_ = f
	g := (*mem.Space).WriteAt // want "reference to raw alloystack/internal/mem.Space.WriteAt outside the trusted partition"
	_ = g
	return sp.ReadAt // want "reference to raw alloystack/internal/mem.Space.ReadAt outside the trusted partition"
}

// parenCall is still a call, not an escaping method value: the message
// must be the call-position one.
func parenCall(sp *mem.Space, buf []byte) error {
	return (sp.ReadAt)(nil, 0, buf) // want "raw alloystack/internal/mem.Space.ReadAt outside the trusted partition; use asstd"
}

// valueWaived shows the waiver covering a value-position reference.
func valueWaived(sp *mem.Space) func() *mem.Space {
	return sp.Fork //asvet:allow trustflow -- fixture-approved fork factory
}

// waiverCoversOneSite references the same gated method twice: the
// waiver on the first site leaves the second reported.
func waiverCoversOneSite(sp *mem.Space) func(mem.Access, uint64, []byte) error {
	f := sp.ReadAt //asvet:allow trustflow -- fixture-approved first site
	_ = f

	return sp.ReadAt // want "reference to raw alloystack/internal/mem.Space.ReadAt outside the trusted partition"
}
