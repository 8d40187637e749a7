package xfer

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// An invoke or reply frame whose header claims the most its fields may
// carry and which then sends nothing more is refused without its claim
// allocated; one that claims past a cap is ErrNetProtocol at the header.
func TestInvokeFrameClaimCostsWhatItSends(t *testing.T) {
	const budget = 16 << 10
	invoke := []byte{opInvoke}
	invoke = binary.BigEndian.AppendUint16(invoke, MaxInvokeName)
	invoke = binary.BigEndian.AppendUint32(invoke, MaxInvokeQuery)
	reply := binary.BigEndian.AppendUint16(nil, 200)
	reply = binary.BigEndian.AppendUint32(reply, 0)
	reply = binary.BigEndian.AppendUint32(reply, maxFrame)
	if n := allocated(func() {
		if _, _, _, err := readInvoke(bufio.NewReader(bytes.NewReader(invoke)), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncated invoke: err = %v, want io.ErrUnexpectedEOF", err)
		}
		if _, err := readReply(bufio.NewReader(bytes.NewReader(reply))); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncated reply: err = %v, want io.ErrUnexpectedEOF", err)
		}
	}); n > budget {
		t.Errorf("decoding two bare headers allocated %d bytes", n)
	}

	over := []byte{opInvoke}
	over = binary.BigEndian.AppendUint16(over, MaxInvokeName+1)
	over = binary.BigEndian.AppendUint32(over, 0)
	if _, _, _, err := readInvoke(bufio.NewReader(bytes.NewReader(over)), nil); !errors.Is(err, ErrNetProtocol) {
		t.Errorf("name over its cap: err = %v, want ErrNetProtocol", err)
	}
	binary.BigEndian.PutUint32(reply[6:], maxFrame+1)
	if _, err := readReply(bufio.NewReader(bytes.NewReader(reply))); !errors.Is(err, ErrNetProtocol) {
		t.Errorf("body over maxFrame: err = %v, want ErrNetProtocol", err)
	}
}

// FuzzInvokeFrame feeds the invoke hop's two decoders bytes they did not
// write, through a reader buffer of the smallest size so long fields
// arrive in pieces. Each must return a frame, ErrNetProtocol or an I/O
// error, never panic, and grow its buffer only by bytes that arrived
// (what it holds, frame or not, stays within append's doubling of what
// it was given),
// and a decoded frame re-encodes to one that decodes the same. The
// seeds are in testdata/fuzz/FuzzInvokeFrame.
func FuzzInvokeFrame(f *testing.F) {
	refused := func(err error) bool {
		return errors.Is(err, ErrNetProtocol) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bound := 3*len(data) + 64
		name, query, scratch, err := readInvoke(bufio.NewReaderSize(bytes.NewReader(data), 16), nil)
		if cap(scratch) > bound {
			t.Fatalf("invoke decoder holds %d bytes of a %d-byte input", cap(scratch), len(data))
		}
		if err == nil {
			frame := appendInvoke(nil, string(name), string(query))
			n2, q2, _, err := readInvoke(bufio.NewReader(bytes.NewReader(frame)), nil)
			if err != nil || !bytes.Equal(n2, name) || !bytes.Equal(q2, query) {
				t.Fatalf("invoke %q?%q re-decoded as %q?%q, %v", name, query, n2, q2, err)
			}
		} else if !refused(err) {
			t.Fatalf("invoke decoder: unexpected error %v", err)
		}

		rep, err := readReply(bufio.NewReaderSize(bytes.NewReader(data), 16))
		if cap(rep.Body) > bound {
			t.Fatalf("reply decoder holds %d bytes of a %d-byte input", cap(rep.Body), len(data))
		}
		if err == nil {
			frame := appendReply(nil, rep.Status, rep.RetryAfter, rep.Body)
			rep2, err := readReply(bufio.NewReader(bytes.NewReader(frame)))
			if err != nil || rep2.Status != rep.Status || rep2.RetryAfter != rep.RetryAfter || !bytes.Equal(rep2.Body, rep.Body) {
				t.Fatalf("reply %d/%d (%d bytes) re-decoded as %d/%d (%d bytes), %v",
					rep.Status, rep.RetryAfter, len(rep.Body), rep2.Status, rep2.RetryAfter, len(rep2.Body), err)
			}
		} else if !refused(err) {
			t.Fatalf("reply decoder: unexpected error %v", err)
		}
	})
}
