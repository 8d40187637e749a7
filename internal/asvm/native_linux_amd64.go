//go:build !race

package asvm

import "syscall"

// nativeTier reports whether this build runs emitted machine code. The
// race detector cannot see the accesses foreign code makes, so a -race
// build runs the register engine, which it can.
const nativeTier = true

// Native code pays its spin every 2^14 steps, which keeps the exits the
// payments cost near 1 % of them.
const spinStride = 1 << 14

// mapText copies code into fresh pages that are writable while it is
// copied and readable and executable after, never both (W^X).
func mapText(code []byte) ([]byte, error) {
	text, err := syscall.Mmap(-1, 0, len(code), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, err
	}
	copy(text, code)
	if err := syscall.Mprotect(text, syscall.PROT_READ|syscall.PROT_EXEC); err != nil {
		unmapText(text)
		return nil, err
	}
	return text, nil
}

// unmapText releases pages mapText mapped.
func unmapText(text []byte) { _ = syscall.Munmap(text) }

// nativeEnter runs the code at entry until it leaves, with the machine
// registers x86.go's code expects loaded from x, and returns once the
// code has written its exit into x.
//
//go:noescape
func nativeEnter(x *nativeCtx, entry uintptr)
