package xfer

import (
	"errors"
	"io"
)

// ServeSource answers framed GET requests on rw from a read-only
// lookup, speaking the same wire protocol as Bridge.ServeConn. Unlike
// a Bridge, a GET does not consume the slot — the source stays able to
// serve the same slot to any number of peers — and SET is rejected with
// an error status. The cluster plane uses it as the "spec server": a
// visor node serves its sealed workflow specs so a pre-warming peer can
// pull them without HTTP plumbing or a shared store. Run one goroutine
// per accepted connection.
func ServeSource(rw io.ReadWriter, lookup func(slot string) ([]byte, bool)) error {
	for {
		op, slot, _, err := readRequest(rw)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch op {
		case opGet:
			data, ok := lookup(slot)
			if !ok {
				err = writeResponse(rw, stMissing, nil)
				break
			}
			if data == nil {
				data = []byte{}
			}
			err = writeResponse(rw, stOK, data)
		default:
			err = writeResponse(rw, stError, nil)
		}
		if err != nil {
			return err
		}
	}
}

// FetchFrom pulls one slot from a ServeSource peer: a convenience for
// one-shot pulls (the pre-warm path dials, fetches the spec, hangs up).
func FetchFrom(rw io.ReadWriter, slot string) ([]byte, error) {
	return NewPeer(rw).get(slot)
}
