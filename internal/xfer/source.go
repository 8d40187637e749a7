package xfer

import (
	"errors"
	"fmt"
	"io"
)

// ServeSource answers framed GET requests on rw from a read-only
// lookup until EOF or error. A GET does not consume the slot, so the
// source can serve the same slot to any number of peers. Any other op
// is ErrNetProtocol and ends the connection without reading what the
// frame claims to carry. The cluster plane uses it as the "spec
// server": a visor node serves its sealed workflow specs so a
// pre-warming peer can pull them without HTTP plumbing or a shared
// store. Run one goroutine per accepted connection.
func ServeSource(rw io.ReadWriter, lookup func(slot string) ([]byte, bool)) error {
	for {
		slot, err := readRequest(rw)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		data, ok := lookup(slot)
		status := byte(stOK)
		if !ok {
			status = stMissing
		}
		if err := writeResponse(rw, status, data); err != nil {
			return err
		}
	}
}

// FetchFrom pulls one slot from a ServeSource peer: one request, one
// response (the pre-warm path dials, fetches the spec, hangs up).
func FetchFrom(rw io.ReadWriter, slot string) ([]byte, error) {
	if err := writeRequest(rw, slot); err != nil {
		return nil, err
	}
	data, status, err := readResponse(rw)
	switch {
	case err != nil:
		return nil, err
	case status == stMissing:
		return nil, missing(slot)
	case status != stOK:
		return nil, fmt.Errorf("%w: source answered status %d for %q", ErrNetProtocol, status, slot)
	}
	return data, nil
}
