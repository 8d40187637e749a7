package workloads

import (
	"bytes"
	"strings"
	"testing"

	"alloystack/internal/asstd"
	"alloystack/internal/visor"
	"alloystack/internal/xfer"
)

// formulaPattern is the payload pattern written out one byte at a time,
// the reference FillPattern and CheckPattern are held to.
func formulaPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 17)
	}
	return b
}

func TestPatternMatchesFormula(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4095, 65536, 65539} {
		want := formulaPattern(n)
		got := make([]byte, n)
		FillPattern(got)
		if !bytes.Equal(got, want) {
			t.Errorf("FillPattern(%d bytes) differs from the formula", n)
		}
		if !CheckPattern(want) {
			t.Errorf("CheckPattern rejects the formula's %d bytes", n)
		}
	}
}

func TestCheckPatternRejectsFlippedByte(t *testing.T) {
	b := formulaPattern(65539)
	for _, off := range []int{0, 1, 255, 256, 257, len(b) - 1} {
		b[off] ^= 0x01
		if CheckPattern(b) {
			t.Errorf("CheckPattern accepts a flipped byte at offset %d", off)
		}
		b[off] ^= 0x01
	}
}

// FuzzPattern checks FillPattern against the formula at any size up to
// 256 KiB, and that CheckPattern rejects a flip at any offset.
func FuzzPattern(f *testing.F) {
	f.Add(uint32(65536), uint32(256))
	f.Fuzz(func(t *testing.T, size, flip uint32) {
		n := int(size % (256<<10 + 1))
		b := make([]byte, n)
		FillPattern(b)
		if !bytes.Equal(b, formulaPattern(n)) {
			t.Fatalf("FillPattern(%d bytes) differs from the formula", n)
		}
		if !CheckPattern(b) {
			t.Fatalf("CheckPattern rejects FillPattern's %d bytes", n)
		}
		if n == 0 {
			return
		}
		off := int(flip) % n
		b[off] ^= 0x01
		if CheckPattern(b) {
			t.Fatalf("CheckPattern accepts %d bytes with offset %d flipped", n, off)
		}
	})
}

// corruptingHop is chain-3 with one payload byte flipped after it has
// verified and forwarded its input: the next hop that verifies must
// refuse it.
func corruptingHop(env *asstd.Env, ctx visor.FuncContext) error {
	if err := chainFn(env, ctx); err != nil {
		return err
	}
	out := visor.Slot(ctx.Function, 0, "chain-4", 0)
	if refPassing(env) {
		b, err := asstd.FromSlot(env, out)
		if err != nil {
			return err
		}
		b.Bytes()[1000] ^= 0x01
		return b.Forward(out)
	}
	t := tp(env)
	data, done, err := t.Recv(out)
	if err != nil {
		return err
	}
	defer done()
	data = bytes.Clone(data)
	data[1000] ^= 0x01
	return t.Send(out, data)
}

// TestFunctionChainRejectsCorruptedHop runs an 8-link chain whose
// chain-3 corrupts the payload it forwards. By reference every later hop
// verifies, so chain-4 refuses it; over files only the tail verifies.
func TestFunctionChainRejectsCorruptedHop(t *testing.T) {
	for _, tc := range []struct{ kind, refuser string }{
		{xfer.KindRefpass, "chain-4"},
		{xfer.KindFile, "chain-7"},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			reg := visor.NewRegistry()
			RegisterAll(reg)
			reg.RegisterNative("chain-3", corruptingHop)
			opts := runOpts(t, func(o *visor.RunOptions) { o.Transfer = tc.kind })
			if tc.kind == xfer.KindFile {
				img, err := BuildEmptyImage(false)
				if err != nil {
					t.Fatal(err)
				}
				opts.DiskImage = img
			}
			_, err := visor.New(reg).RunWorkflow(FunctionChain(8, 64<<10, "native"), opts)
			want := tc.refuser + " received a corrupted payload"
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("invoke returned %v, want an error containing %q", err, want)
			}
		})
	}
}
