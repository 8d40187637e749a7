package xfer

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"
)

// Wire protocol of the gateway→watchdog invoke hop: after one HTTP
// Upgrade to InvokeProtocol on the watchdog's own port, a connection
// carries one invoke frame per request and one reply frame per invoke,
// strictly in turn, for as long as both ends keep it.
//
//	invoke: op(1) nameLen(u16) queryLen(u32) name query   (op is always INVOKE)
//	reply:  status(u16) retryAfter(u32) bodyLen(u32) body
//
// name is the workflow, at most MaxInvokeName bytes; query is the raw
// URL query the client sent, at most MaxInvokeQuery bytes. status is an
// HTTP status (100-599), retryAfter the Retry-After hint in seconds (0
// when none) and body the reply body, at most maxFrame bytes. A decoder
// refuses anything else with ErrNetProtocol, reading no further than
// the header, and allocates only for bytes that have arrived.
const (
	opInvoke = 'I'

	// MaxInvokeName and MaxInvokeQuery cap an invoke frame's workflow
	// name and raw query.
	MaxInvokeName  = 4096
	MaxInvokeQuery = 64 << 10

	invokeHdr = 1 + 2 + 4
	replyHdr  = 2 + 4 + 4

	// maxFrame bounds the body length a reply frame may claim; readN
	// allocates for the bytes that arrive, not for the claim.
	maxFrame = 1 << 30
)

// ErrNetProtocol reports a malformed frame or a refused upgrade.
var ErrNetProtocol = errors.New("xfer: invoke protocol error")

// appendInvoke appends the invoke frame for (name, query) to dst. The
// caller keeps both within their caps.
func appendInvoke(dst []byte, name, query string) []byte {
	dst = append(dst, opInvoke)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(name)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(query)))
	dst = append(dst, name...)
	return append(dst, query...)
}

// readInvoke decodes one invoke frame, reading name and query through
// scratch, which it returns grown.
func readInvoke(r *bufio.Reader, scratch []byte) (name, query []byte, _ []byte, err error) {
	hdr, err := peekHeader(r, invokeHdr)
	if err != nil {
		return nil, nil, scratch, err
	}
	nameLen := int(binary.BigEndian.Uint16(hdr[1:]))
	queryLen := int(binary.BigEndian.Uint32(hdr[3:]))
	if hdr[0] != opInvoke || nameLen > MaxInvokeName || queryLen > MaxInvokeQuery {
		return nil, nil, scratch, ErrNetProtocol
	}
	r.Discard(invokeHdr)
	scratch, err = readN(r, scratch[:0], nameLen+queryLen)
	if err != nil {
		return nil, nil, scratch, err
	}
	return scratch[:nameLen], scratch[nameLen:], scratch, nil
}

// appendReply appends a reply frame to dst.
func appendReply(dst []byte, status, retryAfter int, body []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(status))
	dst = binary.BigEndian.AppendUint32(dst, uint32(retryAfter))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

// readReply decodes one reply frame; the body is allocated afresh.
func readReply(r *bufio.Reader) (InvokeReply, error) {
	hdr, err := peekHeader(r, replyHdr)
	if err != nil {
		return InvokeReply{}, err
	}
	rep := InvokeReply{
		Status:     int(binary.BigEndian.Uint16(hdr)),
		RetryAfter: int(binary.BigEndian.Uint32(hdr[2:])),
	}
	bodyLen := binary.BigEndian.Uint32(hdr[6:])
	if rep.Status < 100 || rep.Status > 599 || bodyLen > maxFrame {
		return InvokeReply{}, ErrNetProtocol
	}
	r.Discard(replyHdr)
	rep.Body, err = readN(r, nil, int(bodyLen))
	return rep, err
}

// peekHeader waits for a frame's fixed-size header. A stream that ends
// inside it is io.ErrUnexpectedEOF; one that ends before it is io.EOF.
func peekHeader(r *bufio.Reader, n int) ([]byte, error) {
	hdr, err := r.Peek(n)
	if errors.Is(err, io.EOF) && len(hdr) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return hdr, err
}

// readN appends the next n bytes of r to dst. It takes them as they
// arrive, at most a buffer's worth at a time, so a frame that claims
// more than it sends costs what it sent: dst grows by the bytes read,
// never by the claim.
func readN(r *bufio.Reader, dst []byte, n int) ([]byte, error) {
	if dst == nil && n > 0 {
		dst = make([]byte, 0, min(n, max(r.Buffered(), 1)))
	}
	for n > 0 {
		b, err := r.Peek(min(n, r.Size()))
		dst = append(dst, b...)
		r.Discard(len(b))
		n -= len(b)
		if err != nil && n > 0 {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return dst, err
		}
	}
	return dst, nil
}

// InvokeReply is one decoded reply frame.
type InvokeReply struct {
	Status     int
	RetryAfter int // seconds; 0 when none
	Body       []byte
}

// Invoke-hop handshake: the gateway's upgrade request on InvokePath and
// the watchdog's 101 answer, the only HTTP on a connection after the
// health poll's optional GET (InvokeConn.Get).
const (
	InvokePath     = "/frames/invoke"
	InvokeProtocol = "alloystack-invoke/1"
)

// ErrNoReply marks a client-side exchange that failed before the first
// byte of its reply arrived: the peer may not have seen the request.
var ErrNoReply = errors.New("xfer: connection failed before the reply")

// InvokeConn is one end of an invoke-hop connection. Its read and write
// buffers are allocated once per connection and reused by every frame.
// A client end (DialInvoke) calls Invoke; a server end (AcceptInvoke)
// calls Recv and Reply, and may Reply from another goroutine while Recv
// waits for the next frame — which is how it notices the peer hang up.
type InvokeConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    []byte // the frame being written

	// host is the upgrade request's Host while the handshake is still
	// to be sent with the first invoke.
	host string

	// Server end: the last name and query Recv decoded, whose strings
	// the next frame reuses when its bytes are the same.
	scratch         []byte
	lastName, lastQ string
}

// NewInvokeConn frames c as an already-upgraded invoke connection.
func NewInvokeConn(c net.Conn) *InvokeConn {
	return &InvokeConn{conn: c, r: bufio.NewReader(c)}
}

// DialInvoke connects to a watchdog's invoke hop at addr. The upgrade
// request goes out with the first invoke, in the same write, and its
// 101 is read before the first reply, so a fresh connection costs no
// round trip beyond TCP's handshake.
func DialInvoke(addr string, timeout time.Duration) (*InvokeConn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	ic := NewInvokeConn(c)
	ic.host = addr
	return ic, nil
}

// AcceptInvoke upgrades the HTTP request r to a server-end invoke
// connection: it answers 101 on the hijacked connection, clears the
// deadlines the HTTP server set on it and keeps the server's read
// buffer, which may already hold the client's first frame. A request
// that is not the upgrade is answered 426 and refused.
func AcceptInvoke(w http.ResponseWriter, r *http.Request) (*InvokeConn, error) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), InvokeProtocol) {
		w.Header().Set("Upgrade", InvokeProtocol)
		http.Error(w, "upgrade to "+InvokeProtocol+" required", http.StatusUpgradeRequired)
		return nil, fmt.Errorf("%w: no %s upgrade", ErrNetProtocol, InvokeProtocol)
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "connection cannot be upgraded", http.StatusInternalServerError)
		return nil, fmt.Errorf("%w: connection cannot be hijacked", ErrNetProtocol)
	}
	c, brw, err := hj.Hijack()
	if err != nil {
		return nil, err
	}
	// net/http's Hijack clears them too; the hop does not rest on that.
	if err := c.SetDeadline(time.Time{}); err != nil {
		c.Close()
		return nil, err
	}
	if _, err := io.WriteString(c, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+InvokeProtocol+"\r\n\r\n"); err != nil {
		c.Close()
		return nil, err
	}
	return &InvokeConn{conn: c, r: brw.Reader}, nil
}

// Get sends one plain HTTP GET for path on a DialInvoke connection whose
// upgrade is still to come. The caller reads the body to its end and
// closes it; unless the response asks to close the connection, the
// connection then carries invokes as if fresh. The gateway's health
// poll uses it, so the connection that carried a poll carries the next
// invoke too and a backend costs one dial, not two.
func (c *InvokeConn) Get(path string) (*http.Response, error) {
	if c.host == "" {
		return nil, fmt.Errorf("%w: GET on an upgraded connection", ErrNetProtocol)
	}
	c.w = fmt.Appendf(c.w[:0], "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", path, c.host)
	if _, err := c.conn.Write(c.w); err != nil {
		return nil, err
	}
	return http.ReadResponse(c.r, nil)
}

// Invoke sends one invoke frame and reads its reply. An error before
// the first reply byte wraps ErrNoReply, unless it is the deadline
// passing: then the peer had the request and took too long. After any
// error the connection is unusable and the caller closes it.
func (c *InvokeConn) Invoke(name, query string) (InvokeReply, error) {
	if len(name) > MaxInvokeName || len(query) > MaxInvokeQuery {
		return InvokeReply{}, fmt.Errorf("%w: invoke name or query over its cap", ErrNetProtocol)
	}
	c.w = c.w[:0]
	if c.host != "" {
		c.w = fmt.Appendf(c.w, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
			InvokePath, c.host, InvokeProtocol)
	}
	c.w = appendInvoke(c.w, name, query)
	if _, err := c.conn.Write(c.w); err != nil {
		return InvokeReply{}, fmt.Errorf("%w: %w", ErrNoReply, err)
	}
	if _, err := c.r.Peek(1); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return InvokeReply{}, err // the peer had the request all along
		}
		return InvokeReply{}, fmt.Errorf("%w: %w", ErrNoReply, err)
	}
	if c.host != "" {
		resp, err := http.ReadResponse(c.r, nil)
		if err != nil {
			return InvokeReply{}, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), InvokeProtocol) {
			return InvokeReply{}, fmt.Errorf("%w: upgrade to %s answered %s", ErrNetProtocol, InvokeProtocol, resp.Status)
		}
		c.host = ""
	}
	return readReply(c.r)
}

// Recv waits for the next invoke frame. The strings are the connection's
// own: equal bytes in consecutive frames yield the same string, so a
// connection serving one workflow allocates no name per frame.
func (c *InvokeConn) Recv() (name, query string, err error) {
	var n, q []byte
	n, q, c.scratch, err = readInvoke(c.r, c.scratch)
	if err != nil {
		return "", "", err
	}
	if string(n) != c.lastName {
		c.lastName = string(n)
	}
	if string(q) != c.lastQ {
		c.lastQ = string(q)
	}
	return c.lastName, c.lastQ, nil
}

// Reply writes one reply frame in a single write.
func (c *InvokeConn) Reply(status, retryAfter int, body []byte) error {
	c.w = appendReply(c.w[:0], status, retryAfter, body)
	_, err := c.conn.Write(c.w)
	return err
}

// SetDeadline bounds every read and write on the connection.
func (c *InvokeConn) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Close closes the connection; a Recv or Invoke blocked on it returns.
func (c *InvokeConn) Close() error { return c.conn.Close() }
