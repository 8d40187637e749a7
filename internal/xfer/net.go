package xfer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"alloystack/internal/asstd"
	"alloystack/internal/metrics"
)

// Wire protocol for the net transport: a length-prefixed slot store.
//
//	request:  op(1) slotLen(u32) slot [payloadLen(u64) payload]   (payload on SET only)
//	response: status(1) [payloadLen(u64) payload]                 (payload on GET-ok only)
//
// Fixed-width big-endian frames keep the protocol binary-safe over any
// stream — the in-repo netstack for WFD-to-WFD traffic, a host TCP
// socket for the visor bridge, or an in-process pipe in tests.
const (
	opSet = 'S'
	opGet = 'G'

	stOK      = 0
	stMissing = 1
	stError   = 2

	// maxFrame bounds the length one payload may claim; readPayload
	// allocates for the bytes that arrive, not for the claim.
	maxFrame = 1 << 30
)

// ErrNetProtocol reports a malformed frame.
var ErrNetProtocol = errors.New("xfer: net transport protocol error")

// Peer is one side of a framed connection to a Bridge. Requests are
// serialised under a mutex, so one Peer can be shared by every function
// instance of a run (like a single Redis connection).
type Peer struct {
	mu sync.Mutex
	rw io.ReadWriter
}

// NewPeer wraps a connected stream (netstack.Conn, net.Conn, pipe).
func NewPeer(rw io.ReadWriter) *Peer { return &Peer{rw: rw} }

// Close closes the underlying stream when it supports closing.
func (p *Peer) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.rw.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func (p *Peer) roundTrip(op byte, slot string, payload []byte) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := writeRequest(p.rw, op, slot, payload); err != nil {
		return nil, err
	}
	data, status, err := readResponse(p.rw, op == opGet)
	if err != nil {
		return nil, err
	}
	switch status {
	case stOK:
		return data, nil
	case stMissing:
		return nil, missing(slot)
	default:
		return nil, fmt.Errorf("%w: bridge rejected %c %q", ErrNetProtocol, op, slot)
	}
}

func (p *Peer) set(slot string, data []byte) error {
	_, err := p.roundTrip(opSet, slot, data)
	return err
}

func (p *Peer) get(slot string) ([]byte, error) { return p.roundTrip(opGet, slot, nil) }

// traceMetaSlot is the reserved bridge slot that carries the exporting
// node's trace ID across a multi-node cut. It rides the ordinary framed
// SET/GET protocol — no wire-format change — and is consumed by the
// importing visor before any payload slots, so both halves of a split
// run stitch into one trace.
const traceMetaSlot = "__trace:id"

// ShipTraceID parks the exporter's trace ID on the far-side bridge.
func (p *Peer) ShipTraceID(id string) error {
	if id == "" {
		return nil
	}
	return p.set(traceMetaSlot, []byte(id))
}

// FetchTraceID consumes the trace ID parked by the exporting node; ok
// is false when the exporter did not trace (or already consumed it).
func (p *Peer) FetchTraceID() (string, bool) {
	data, err := p.get(traceMetaSlot)
	if err != nil || len(data) == 0 {
		return "", false
	}
	return string(data), true
}

func writeRequest(w io.Writer, op byte, slot string, payload []byte) error {
	hdr := make([]byte, 1+4)
	hdr[0] = op
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(slot)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := io.WriteString(w, slot); err != nil {
		return err
	}
	if op != opSet {
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

func readRequest(r io.Reader) (op byte, slot string, payload []byte, err error) {
	hdr := make([]byte, 1+4)
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, "", nil, err
	}
	op = hdr[0]
	if op != opSet && op != opGet {
		return 0, "", nil, ErrNetProtocol
	}
	slotLen := binary.BigEndian.Uint32(hdr[1:])
	if slotLen > 4096 {
		return 0, "", nil, ErrNetProtocol
	}
	name := make([]byte, slotLen)
	if _, err = io.ReadFull(r, name); err != nil {
		return 0, "", nil, err
	}
	slot = string(name)
	if op != opSet {
		return op, slot, nil, nil
	}
	if payload, err = readPayload(r); err != nil {
		return 0, "", nil, err
	}
	return op, slot, payload, nil
}

func writeResponse(w io.Writer, status byte, payload []byte) error {
	if _, err := w.Write([]byte{status}); err != nil {
		return err
	}
	if status != stOK || payload == nil {
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

// readResponse returns (payload, status, err). GET-ok responses carry a
// payload; SET-ok responses are a bare status byte — the requester knows
// which op it sent, so the frame needs no op echo.
func readResponse(r io.Reader, wantPayload bool) ([]byte, byte, error) {
	var st [1]byte
	if _, err := io.ReadFull(r, st[:]); err != nil {
		return nil, 0, err
	}
	if st[0] != stOK || !wantPayload {
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

// Bridge is the slot store on the receiving side of a multi-node cut:
// the exporting node SETs boundary slots, the importing node GETs them.
// A GET consumes the slot, mirroring AsBuffer acquire semantics.
type Bridge struct {
	mu    sync.Mutex
	slots map[string][]byte
}

// NewBridge returns an empty bridge.
//
//asvet:allow unreachable -- the serving half of the net transport: the importing node of a §9 cut runs one; in-repo only tests do
func NewBridge() *Bridge { return &Bridge{slots: make(map[string][]byte)} }

// Len reports how many slots are parked (tests).
//
//asvet:allow unreachable -- test observer of the parked slots
func (b *Bridge) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.slots)
}

// Put parks a payload directly (in-process producers).
//
//asvet:allow unreachable -- in-process producer side of the bridge, see NewBridge
func (b *Bridge) Put(slot string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	b.mu.Lock()
	b.slots[slot] = cp
	b.mu.Unlock()
}

// Take consumes a payload directly; ok is false when absent.
//
//asvet:allow unreachable -- ServeConn's GET, see NewBridge
func (b *Bridge) Take(slot string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.slots[slot]
	delete(b.slots, slot)
	return data, ok
}

// ServeConn answers framed requests on rw until EOF or error. Run one
// goroutine per accepted connection.
//
//asvet:allow unreachable -- see NewBridge
func (b *Bridge) ServeConn(rw io.ReadWriter) error {
	for {
		op, slot, payload, err := readRequest(rw)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch op {
		case opSet:
			b.mu.Lock()
			b.slots[slot] = payload
			b.mu.Unlock()
			err = writeResponse(rw, stOK, nil)
		case opGet:
			data, ok := b.Take(slot)
			if !ok {
				err = writeResponse(rw, stMissing, nil)
				break
			}
			if data == nil {
				data = []byte{}
			}
			err = writeResponse(rw, stOK, data)
		}
		if err != nil {
			return err
		}
	}
}

// Dial returns an in-process Peer served by this bridge — the
// single-node deployment of the net transport (no real cut).
//
//asvet:allow unreachable -- see NewBridge
func (b *Bridge) Dial() *Peer {
	client, server := net.Pipe()
	go func() {
		b.ServeConn(server)
		server.Close()
	}()
	return NewPeer(client)
}

// Net is the cross-node transport: payloads travel as framed messages
// over a byte stream (the in-repo netstack between WFDs, host TCP
// between visor nodes) to a Bridge on the far side. It backs
// visor.SplitAt/CrossSlots boundary movement.
type Net struct {
	env   *asstd.Env // optional: backs Alloc staging only
	peer  *Peer
	stats *metrics.TransportStats
}

// NewNet builds the transport over an established peer connection. env
// may be nil when only Send/Recv are used.
func NewNet(peer *Peer, env *asstd.Env, stats *metrics.TransportStats) *Net {
	return &Net{env: env, peer: peer, stats: stats}
}

// Kind names the transport.
func (t *Net) Kind() string { return KindNet }

// Send ships data to the far-side bridge (copy one: serialisation onto
// the wire).
func (t *Net) Send(slot string, data []byte) error {
	if err := t.peer.set(slot, data); err != nil {
		return err
	}
	t.stats.CountOp(KindNet, int64(len(data)), 1)
	return nil
}

// Alloc stages production in an AsBuffer; SendBuffer ships it.
func (t *Net) Alloc(slot string, size uint64) (*asstd.Buffer, error) {
	if t.env == nil {
		return nil, ErrNoEnv
	}
	return asstd.NewBuffer(t.env, slot, size)
}

// SendBuffer ships an Alloc-ed buffer across the wire and releases the
// staging buffer.
func (t *Net) SendBuffer(b *asstd.Buffer) error {
	if err := t.Send(b.Slot(), b.Bytes()); err != nil {
		return err
	}
	return b.Free()
}

// Recv pulls the payload from the bridge (copy two: off the wire into
// the consumer) and consumes the slot.
func (t *Net) Recv(slot string) ([]byte, func() error, error) {
	data, err := t.peer.get(slot)
	if err != nil {
		return nil, nil, err
	}
	t.stats.CountOp(KindNet, int64(len(data)), 1)
	return data, nopRelease, nil
}
