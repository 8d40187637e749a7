package xfer

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// claimFrame is a 14-byte SET request for slot "x" whose payload length
// claims maxFrame and whose payload never arrives.
func claimFrame() []byte {
	f := []byte{opSet, 0, 0, 0, 1, 'x', 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint64(f[6:], maxFrame)
	return f
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A frame costs what it sends: a claimed payload length is not
// allocated up front, on either side of the wire.
func TestFrameClaimCostsWhatItSends(t *testing.T) {
	const budget = 1 << 20
	frame := claimFrame()
	if n := allocated(func() {
		if _, _, _, err := readRequest(bytes.NewReader(frame)); err == nil {
			t.Error("readRequest accepted a truncated frame")
		}
	}); n > budget {
		t.Errorf("readRequest of a %d-byte frame allocated %d bytes", len(frame), n)
	}
	reply := append([]byte{stOK}, frame[6:]...)
	if n := allocated(func() {
		if _, _, err := readResponse(bytes.NewReader(reply), true); err == nil {
			t.Error("readResponse accepted a truncated reply")
		}
	}); n > budget {
		t.Errorf("readResponse of a %d-byte reply allocated %d bytes", len(reply), n)
	}
}

// FuzzNetFrame feeds the framed protocol's two decoders bytes they did
// not write. Each must return a frame or an error, never panic, and a
// decoded frame re-encodes to one that decodes the same. The seeds are
// in testdata/fuzz/FuzzNetFrame.
func FuzzNetFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, wantPayload bool) {
		if op, slot, payload, err := readRequest(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := writeRequest(&buf, op, slot, payload); err != nil {
				t.Fatal(err)
			}
			op2, slot2, payload2, err := readRequest(&buf)
			if err != nil || op2 != op || slot2 != slot || !bytes.Equal(payload2, payload) {
				t.Fatalf("request %c %q (%d bytes) re-decoded as %c %q (%d bytes), %v",
					op, slot, len(payload), op2, slot2, len(payload2), err)
			}
		}
		if payload, st, err := readResponse(bytes.NewReader(data), wantPayload); err == nil {
			var buf bytes.Buffer
			if err := writeResponse(&buf, st, payload); err != nil {
				t.Fatal(err)
			}
			payload2, st2, err := readResponse(&buf, wantPayload)
			if err != nil || st2 != st || !bytes.Equal(payload2, payload) {
				t.Fatalf("response %d (%d bytes) re-decoded as %d (%d bytes), %v",
					st, len(payload), st2, len(payload2), err)
			}
		}
	})
}
