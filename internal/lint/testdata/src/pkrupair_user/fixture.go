// Package pkrupair_user is an asvet fixture: trampoline pairing and raw
// PKRU switch shapes.
package pkrupair_user

import "alloystack/internal/mpk"

type gate struct {
	ctx  *mpk.Context
	sys  mpk.PKRU
	user mpk.PKRU
}

// enterSys / leaveSys are trampoline halves: single raw WritePKRU
// bodies. The analyzer exempts the halves and checks their call sites.
func (g *gate) enterSys() {
	g.ctx.WritePKRU(g.sys)
}

func (g *gate) leaveSys() {
	g.ctx.WritePKRU(g.user)
}

func goodDeferredPair(g *gate) {
	g.enterSys()
	defer g.leaveSys()
	work()
}

func goodExplicitPair(g *gate) {
	g.enterSys()
	work()
	g.leaveSys()
}

func badMissingLeave(g *gate) {
	g.enterSys() // want "enterSys switches the PKRU domain but leaveSys is not called on all paths"
	work()
}

func badLeaveSkippedOnEarlyReturn(g *gate, fail bool) error {
	g.enterSys() // want "enterSys switches the PKRU domain but leaveSys is not called on all paths"
	if fail {
		return errFixture // escapes without leaving the domain
	}
	g.leaveSys()
	return nil
}

func goodSavedRestore(ctx *mpk.Context, elevated mpk.PKRU) {
	saved := ctx.ReadPKRU()
	ctx.WritePKRU(elevated)
	defer ctx.WritePKRU(saved)
	work()
}

func badRawSwitchNoRestore(ctx *mpk.Context, elevated mpk.PKRU) {
	ctx.WritePKRU(elevated) // want "PKRU domain switch without a matching restore"
	work()
}

func work() {}

var errFixture = errorString("fixture")

type errorString string

func (e errorString) Error() string { return string(e) }

// switchSys is a trampoline half named neither enter* nor leave*: no
// counterpart can be derived, so its calls are reported rather than
// skipped.
func (g *gate) switchSys() {
	g.ctx.WritePKRU(g.sys)
}

func badUnknownHalf(g *gate) {
	g.switchSys() // want "switchSys switches the PKRU domain but is named neither enter. nor leave."
	work()
}
