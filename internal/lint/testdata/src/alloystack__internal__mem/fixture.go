// Package mem is a trustflow fixture standing in for the real address
// space layer: the directory name claims the import path
// alloystack/internal/mem, so Space's methods carry exactly the node
// IDs trustflow's gated-operation table names.
package mem

// Space is the fixture's stand-in for the guest address space.
type Space struct {
	data []byte
}

// ReadAt is a gated raw accessor (fixture body: no checks on purpose).
func (s *Space) ReadAt(p []byte, off int) error {
	copy(p, s.data[off:])
	return nil
}

// WriteAt is a gated raw accessor.
func (s *Space) WriteAt(p []byte, off int) error {
	copy(s.data[off:], p)
	return nil
}

// Fork is a gated lifecycle operation.
func (s *Space) Fork() *Space {
	return &Space{data: append([]byte(nil), s.data...)}
}

// Copy is NOT gated, but it wraps raw power: it sits in the trusted
// partition (this fake package claims a trusted path) without being on
// the approved trampoline list, so untrusted callers of Copy must be
// reported as reaching ReadAt through a non-approved trusted export.
func (s *Space) Copy(p []byte) error {
	return s.ReadAt(p, 0)
}

// Len reaches nothing gated; calling it from anywhere must stay quiet.
func (s *Space) Len() int { return len(s.data) }
