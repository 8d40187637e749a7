package xfer

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// claim is a payloadLen(u64) prefix that claims maxFrame.
func claim() []byte {
	return binary.BigEndian.AppendUint64(nil, maxFrame)
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A frame costs what it sends: an ok reply whose payload length claims
// maxFrame and whose payload never arrives is not allocated up front.
// (The request side never reads a payload; TestServeSourceRefusesClaimedSet
// covers a request that claims one.)
func TestFrameClaimCostsWhatItSends(t *testing.T) {
	const budget = 1 << 20
	reply := append([]byte{stOK}, claim()...)
	if n := allocated(func() {
		if _, _, err := readResponse(bytes.NewReader(reply)); err == nil {
			t.Error("readResponse accepted a truncated reply")
		}
	}); n > budget {
		t.Errorf("readResponse of a %d-byte reply allocated %d bytes", len(reply), n)
	}
}

// FuzzNetFrame feeds the framed protocol's two decoders bytes they did
// not write. Each must return a frame or an error, never panic, and a
// decoded frame re-encodes to one that decodes the same. The seeds are
// in testdata/fuzz/FuzzNetFrame; their bool argument is unused (an ok
// response always carries a payload) and stays so the corpus decodes.
func FuzzNetFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, _ bool) {
		if slot, err := readRequest(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := writeRequest(&buf, slot); err != nil {
				t.Fatal(err)
			}
			slot2, err := readRequest(&buf)
			if err != nil || slot2 != slot {
				t.Fatalf("request %q re-decoded as %q, %v", slot, slot2, err)
			}
		}
		if payload, st, err := readResponse(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := writeResponse(&buf, st, payload); err != nil {
				t.Fatal(err)
			}
			payload2, st2, err := readResponse(&buf)
			if err != nil || st2 != st || !bytes.Equal(payload2, payload) {
				t.Fatalf("response %d (%d bytes) re-decoded as %d (%d bytes), %v",
					st, len(payload), st2, len(payload2), err)
			}
		}
	})
}
