//go:build !race

#include "go_asm.h"
#include "textflag.h"

// func nativeEnter(x *nativeCtx, entry uintptr)
//
// Loads the registers the emitted code runs on (x86.go) and calls it.
// The code writes no stack but the return address this CALL pushes, and
// leaves RSP, RBP, R14 and X15 as they were. It may clobber R12 and R15
// (the mirrors, x86.go), which ABI0 lets a callee do.
TEXT ·nativeEnter(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), R9
	MOVQ entry+8(FP), AX
	MOVQ nativeCtx_frame(R9), DI
	MOVQ nativeCtx_mem(R9), SI
	MOVQ nativeCtx_memLen(R9), R8
	MOVQ nativeCtx_memLen7(R9), R13
	MOVQ nativeCtx_globals(R9), R10
	MOVQ nativeCtx_budget(R9), BX
	CALL AX
	RET
