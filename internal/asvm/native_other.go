//go:build !linux || !amd64 || race

package asvm

// nativeTier reports whether this build runs emitted machine code: not
// on this platform, or not under the race detector, which cannot see
// what foreign code accesses. Every AOT instance runs the register
// engine.
const nativeTier = false

// The register engine pays its spin every 256 steps.
const spinStride = 256

func mapText([]byte) ([]byte, error) { panic("asvm: no native tier in this build") }

func unmapText([]byte) {}

func nativeEnter(*nativeCtx, uintptr) { panic("asvm: no native tier in this build") }
