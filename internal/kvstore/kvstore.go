// Package kvstore is a Redis-like in-memory key-value store speaking a
// RESP-style length-prefixed protocol over TCP. It stands in for the
// external storage services (Redis, S3) that the OpenFaaS and Faasm
// baselines use to move intermediate data between functions — the
// "third-party forwarding" transfer path whose copies and round trips the
// paper's reference passing eliminates.
//
// The protocol is binary-safe and deliberately minimal:
//
//	*<argc>\r\n then argc of: $<len>\r\n<bytes>\r\n
//
// Commands: SET key value → +OK, GET key → $len payload or $-1,
// DEL key → :n. A bulk length outside [0, 512 MiB] is a protocol
// error, and a bulk's buffer grows as its bytes arrive, so a claimed
// length costs what the peer actually sends.
package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"

	"alloystack/internal/faults"
)

// Errors returned by the client.
var (
	ErrNotFound = errors.New("kvstore: key not found")
	ErrProtocol = errors.New("kvstore: protocol error")
	ErrServer   = errors.New("kvstore: server error")
)

// maxBulk bounds one bulk string's length (Redis's default
// proto-max-bulk-len).
const maxBulk = 512 << 20

// Server is the store plus its TCP acceptor.
type Server struct {
	mu   sync.RWMutex
	data map[string][]byte

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewServer starts a store listening on addr ("127.0.0.1:0" for an
// ephemeral port).
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		data:   make(map[string][]byte),
		ln:     ln,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the acceptor, force-closes live client connections and
// waits for their handlers. Without the force-close a server shutdown
// would block until every client disconnected on its own.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.ln.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				conn.Close()
			}()
			s.serve(conn)
		}()
	}
}

func (s *Server) serve(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64*1024)
	w := bufio.NewWriterSize(conn, 64*1024)
	for {
		args, err := readCommand(r)
		if err != nil {
			return
		}
		if len(args) == 0 {
			continue
		}
		switch string(args[0]) {
		case "SET":
			if len(args) != 3 {
				writeError(w, "SET wants 2 arguments")
				break
			}
			val := make([]byte, len(args[2]))
			copy(val, args[2])
			s.mu.Lock()
			s.data[string(args[1])] = val
			s.mu.Unlock()
			w.WriteString("+OK\r\n")
		case "GET":
			if len(args) != 2 {
				writeError(w, "GET wants 1 argument")
				break
			}
			s.mu.RLock()
			val, ok := s.data[string(args[1])]
			s.mu.RUnlock()
			if !ok {
				w.WriteString("$-1\r\n")
				break
			}
			fmt.Fprintf(w, "$%d\r\n", len(val))
			w.Write(val)
			w.WriteString("\r\n")
		case "DEL":
			if len(args) != 2 {
				writeError(w, "DEL wants 1 argument")
				break
			}
			s.mu.Lock()
			_, ok := s.data[string(args[1])]
			delete(s.data, string(args[1]))
			s.mu.Unlock()
			n := 0
			if ok {
				n = 1
			}
			fmt.Fprintf(w, ":%d\r\n", n)
		default:
			writeError(w, "unknown command "+string(args[0]))
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func writeError(w *bufio.Writer, msg string) {
	w.WriteString("-ERR " + msg + "\r\n")
}

// readCommand parses one *argc/$len command from the wire.
func readCommand(r *bufio.Reader) ([][]byte, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[0] != '*' {
		return nil, ErrProtocol
	}
	argc, err := strconv.Atoi(string(line[1:]))
	if err != nil || argc < 0 || argc > 64 {
		return nil, ErrProtocol
	}
	args := make([][]byte, argc)
	for i := 0; i < argc; i++ {
		hdr, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if len(hdr) < 2 || hdr[0] != '$' {
			return nil, ErrProtocol
		}
		n, err := strconv.Atoi(string(hdr[1:]))
		if err != nil || n < 0 || n > maxBulk {
			return nil, ErrProtocol
		}
		if args[i], err = readBulk(r, n); err != nil {
			return nil, err
		}
	}
	return args, nil
}

// readBulk reads a bulk string's n-byte body and its CRLF. The buffer
// starts at 64 KiB at most and doubles as bytes arrive.
func readBulk(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n+2, 64<<10))
	for off := 0; ; {
		m, err := io.ReadFull(r, buf[off:])
		if err != nil {
			return nil, err
		}
		if off += m; off == n+2 {
			break
		}
		buf = append(buf, make([]byte, min(n+2-off, off))...)
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, ErrProtocol
	}
	return buf[:n], nil
}

func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, ErrProtocol
	}
	return line[:len(line)-2], nil
}

// Keys reports the number of keys stored (tests/metrics).
func (s *Server) Keys() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Client is a connection to a Server. Safe for concurrent use; commands
// are serialised on the single connection like a real Redis client.
//
// Transient failures — a dropped TCP connection, a server restart on
// the same address — are absorbed transparently: every command (SET,
// GET, DEL) is idempotent, so the client redials and replays the failed
// command up to MaxReconnects times before surfacing the error.
// Protocol- and application-level errors (ErrServer, ErrProtocol,
// ErrNotFound) are never retried.
type Client struct {
	mu   sync.Mutex
	addr string
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	ops        int
	reconnects int

	// MaxReconnects bounds redial-and-replay attempts per command
	// (default 2).
	MaxReconnects int //asvet:allow unreachable -- test seam: the reconnect chaos tests bound the redials
	// Faults, when non-nil, is consulted before every command so a
	// deterministic plan can drop the connection (KVDropConn).
	Faults *faults.Plan //asvet:allow unreachable -- the chaos seam: KVDropConn plans are installed by the reconnect tests
}

// Dial connects to the store at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		addr: addr,
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64*1024),
		w:    bufio.NewWriterSize(conn, 64*1024),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// Reconnects reports how many transparent redials the client performed.
func (c *Client) Reconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// transient reports whether err warrants a redial-and-replay: anything
// that is not one of our protocol/application sentinels is assumed to
// be a connection-level failure.
func transient(err error) bool {
	return err != nil &&
		!errors.Is(err, ErrServer) &&
		!errors.Is(err, ErrProtocol) &&
		!errors.Is(err, ErrNotFound)
}

// redial replaces the connection; on failure the old (dead) connection
// stays in place so subsequent attempts keep failing transiently.
func (c *Client) redial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = conn
	c.r = bufio.NewReaderSize(conn, 64*1024)
	c.w = bufio.NewWriterSize(conn, 64*1024)
	return nil
}

// do runs one command attempt under the client lock and replays it
// across reconnects on transient failure: SET, GET and DEL applied
// twice converge on the same state.
func (c *Client) do(attempt func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if c.Faults.KVDrop(c.ops) {
		// Injected fault: the connection dies under us mid-sequence.
		c.conn.Close()
	}
	err := attempt()
	if !transient(err) {
		return err
	}
	max := c.MaxReconnects
	if max <= 0 {
		max = 2
	}
	for i := 0; i < max; i++ {
		if derr := c.redial(); derr != nil {
			err = derr
			continue
		}
		c.reconnects++
		if err = attempt(); !transient(err) {
			return err
		}
	}
	return err
}

func (c *Client) send(args ...[]byte) error {
	fmt.Fprintf(c.w, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(c.w, "$%d\r\n", len(a))
		c.w.Write(a)
		c.w.WriteString("\r\n")
	}
	return c.w.Flush()
}

// Set stores value under key.
func (c *Client) Set(key string, value []byte) error {
	return c.do(func() error {
		if err := c.send([]byte("SET"), []byte(key), value); err != nil {
			return err
		}
		line, err := readLine(c.r)
		if err != nil {
			return err
		}
		if len(line) == 0 || line[0] != '+' {
			return fmt.Errorf("%w: %s", ErrServer, line)
		}
		return nil
	})
}

// Get fetches the value under key.
func (c *Client) Get(key string) ([]byte, error) {
	var out []byte
	err := c.do(func() error {
		if err := c.send([]byte("GET"), []byte(key)); err != nil {
			return err
		}
		line, err := readLine(c.r)
		if err != nil {
			return err
		}
		if len(line) == 0 || line[0] != '$' {
			return fmt.Errorf("%w: %s", ErrServer, line)
		}
		n, err := strconv.Atoi(string(line[1:]))
		if err == nil && n == -1 {
			return ErrNotFound
		}
		if err != nil || n < 0 || n > maxBulk {
			return ErrProtocol
		}
		out, err = readBulk(c.r, n)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Del removes key, reporting whether it existed.
func (c *Client) Del(key string) (bool, error) {
	var existed bool
	err := c.do(func() error {
		if err := c.send([]byte("DEL"), []byte(key)); err != nil {
			return err
		}
		line, err := readLine(c.r)
		if err != nil {
			return err
		}
		if len(line) == 0 || line[0] != ':' {
			return fmt.Errorf("%w: %s", ErrServer, line)
		}
		existed = string(line[1:]) == "1"
		return nil
	})
	return existed, err
}
