// Package core (fixture): the identical raw accesses that trustflow
// flags in untrusted packages are legal here — the directory name claims
// the trusted import path alloystack/internal/core.
package core

import (
	"alloystack/internal/mem"
	"alloystack/internal/mpk"
)

func trustedAccess(sp *mem.Space, ctx *mpk.Context) error {
	buf := make([]byte, 8)
	if err := sp.ReadAt(nil, 0, buf); err != nil {
		return err
	}
	if err := sp.WriteAt(nil, 0, buf); err != nil {
		return err
	}
	_ = sp.Fork()
	saved := ctx.ReadPKRU()
	ctx.WritePKRU(0)
	ctx.WritePKRU(saved)
	return nil
}
