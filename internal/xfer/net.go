package xfer

import (
	"encoding/binary"
	"errors"
	"io"
)

// Wire protocol of the spec server: a length-prefixed read-only slot
// lookup.
//
//	request:  op(1) slotLen(u32) slot           (op is always GET)
//	response: status(1) [payloadLen(u64) payload] (payload on ok only)
//
// Fixed-width big-endian frames keep the protocol binary-safe over any
// stream — a host TCP socket between visor nodes, or an in-process pipe
// in tests.
const (
	opGet = 'G'

	stOK      = 0
	stMissing = 1

	// maxFrame bounds the length one payload may claim; readPayload
	// allocates for the bytes that arrive, not for the claim.
	maxFrame = 1 << 30
)

// ErrNetProtocol reports a malformed frame.
var ErrNetProtocol = errors.New("xfer: spec server protocol error")

func writeRequest(w io.Writer, slot string) error {
	hdr := make([]byte, 1+4)
	hdr[0] = opGet
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(slot)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := io.WriteString(w, slot)
	return err
}

// readRequest decodes one GET. Any other op is ErrNetProtocol, read no
// further than its header: a frame that claims a payload never gets one
// read.
func readRequest(r io.Reader) (string, error) {
	hdr := make([]byte, 1+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return "", err
	}
	slotLen := binary.BigEndian.Uint32(hdr[1:])
	if hdr[0] != opGet || slotLen > 4096 {
		return "", ErrNetProtocol
	}
	name := make([]byte, slotLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", err
	}
	return string(name), nil
}

// writeResponse writes status, followed by payload when status is stOK.
func writeResponse(w io.Writer, status byte, payload []byte) error {
	if _, err := w.Write([]byte{status}); err != nil {
		return err
	}
	if status != stOK {
		return nil
	}
	var sz [8]byte
	binary.BigEndian.PutUint64(sz[:], uint64(len(payload)))
	if _, err := w.Write(sz[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readResponse returns (payload, status, err); an ok response carries a
// payload, any other status is a bare byte.
func readResponse(r io.Reader) ([]byte, byte, error) {
	var st [1]byte
	if _, err := io.ReadFull(r, st[:]); err != nil {
		return nil, 0, err
	}
	if st[0] != stOK {
		return nil, st[0], nil
	}
	payload, err := readPayload(r)
	if err != nil {
		return nil, 0, err
	}
	return payload, stOK, nil
}

// readPayload reads a payloadLen(u64)-prefixed payload. The buffer
// starts at 64 KiB at most and doubles only as bytes arrive, so a frame
// that claims maxFrame and then stalls or hangs up costs what it sent,
// not what it claimed.
func readPayload(r io.Reader) ([]byte, error) {
	var sz [8]byte
	if _, err := io.ReadFull(r, sz[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint64(sz[:])
	if n > maxFrame {
		return nil, ErrNetProtocol
	}
	buf := make([]byte, min(n, 64<<10))
	for off := 0; ; {
		m, err := io.ReadFull(r, buf[off:])
		if err != nil {
			return nil, err
		}
		if off += m; uint64(off) == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-uint64(off), uint64(off)))...)
	}
}
