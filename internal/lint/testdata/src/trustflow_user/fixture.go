// Package trustflow_user is an untrusted fixture package exercising the
// interprocedural gate proof: direct raw calls, method values, calls
// routed through the approved trampoline, and calls into a trusted
// export that is not on the approved list.
package trustflow_user

import (
	"alloystack/internal/asstd"
	"alloystack/internal/mem"
)

// direct raw call: reported at the call site.
func directRaw(s *mem.Space, p []byte) error {
	return s.ReadAt(p, 0) // want "untrusted trustflow_user.directRaw calls raw alloystack/internal/mem.Space.ReadAt"
}

// transitiveRaw calls directRaw. Only the deeper crossing (inside
// directRaw) is reported — a waiver there covers this caller, so no
// want on the call below.
func transitiveRaw(s *mem.Space, p []byte) error {
	return directRaw(s, p)
}

// methodValue smuggles the gated accessor out as a value.
func methodValue(s *mem.Space) func([]byte, int) error {
	return s.WriteAt // want "untrusted trustflow_user.methodValue takes a reference to raw alloystack/internal/mem.Space.WriteAt"
}

// throughTrampoline routes through the approved asstd layer: quiet.
func throughTrampoline(s *mem.Space, p []byte) error {
	return asstd.Read(s, p, 0)
}

// throughTrustedExport calls a trusted-partition export that wraps raw
// power without being on the approved list.
func throughTrustedExport(s *mem.Space, p []byte) error {
	return s.Copy(p) // want "untrusted trustflow_user.throughTrustedExport reaches alloystack/internal/mem.Space.ReadAt via alloystack/internal/mem.Space.Copy, a trusted-partition export not on the approved trampoline list"
}

// harmless touches only ungated trusted surface: quiet.
func harmless(s *mem.Space) int {
	return s.Len()
}

// waived shows the in-place waiver silencing a real crossing.
func waived(s *mem.Space) *mem.Space {
	return s.Fork() //asvet:allow trustflow -- fixture-approved fork
}
