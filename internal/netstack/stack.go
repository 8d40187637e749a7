package netstack

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Stack is one WFD's TCP/IP instance: a NIC, a demux table of live
// connections, and a set of listeners. The paper's as-libos creates one
// per WFD (its TAP device + smoltcp interface); here the visor does the
// same with Hub.Attach + NewStack.
type Stack struct {
	nic *NIC

	mu        sync.Mutex
	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
	closed    bool

	ipID    uint32 // IPv4 identification counter
	rng     *rand.Rand
	rxBytes atomic.Int64
	txBytes atomic.Int64

	wg sync.WaitGroup
}

type connKey struct {
	localPort  uint16
	remoteAddr Addr
	remotePort uint16
}

// NewStack wraps nic in a TCP/IP stack and starts its input loop.
func NewStack(nic *NIC) *Stack {
	st := &Stack{
		nic:       nic,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  32768,
		rng:       rand.New(rand.NewSource(int64(nic.addr[3]) + 42)),
	}
	st.wg.Add(1)
	go st.inputLoop()
	return st
}

// Addr returns the stack's IP address.
func (st *Stack) Addr() Addr { return st.nic.Addr() }

// Close detaches the NIC and resets every connection.
func (st *Stack) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	conns := make([]*Conn, 0, len(st.conns))
	for _, c := range st.conns {
		conns = append(conns, c)
	}
	listeners := make([]*Listener, 0, len(st.listeners))
	for _, l := range st.listeners {
		listeners = append(listeners, l)
	}
	st.mu.Unlock()

	for _, l := range listeners {
		l.Close()
	}
	for _, c := range conns {
		c.mu.Lock()
		c.toClosed(ErrStackClosed)
		c.mu.Unlock()
	}
	st.nic.Detach()
	st.wg.Wait()
}

// sendSegment marshals and transmits a TCP segment inside an IPv4 packet.
func (st *Stack) sendSegment(src, dst Addr, s *segment) {
	id := uint16(atomic.AddUint32(&st.ipID, 1))
	tcpBytes := marshalTCP(src, dst, s)
	pkt := marshalIP(src, dst, ProtoTCP, id, tcpBytes)
	st.txBytes.Add(int64(len(s.Payload)))
	st.nic.Send(pkt)
}

// inputLoop demultiplexes incoming packets to connections and listeners.
func (st *Stack) inputLoop() {
	defer st.wg.Done()
	for {
		pkt, err := st.nic.Recv()
		if err != nil {
			return
		}
		h, payload, err := parseIP(pkt)
		if err != nil || h.Protocol != ProtoTCP || h.Dst != st.nic.Addr() {
			continue
		}
		seg, err := parseTCP(h.Src, h.Dst, payload)
		if err != nil {
			continue
		}
		st.rxBytes.Add(int64(len(seg.Payload)))
		st.dispatch(h.Src, seg)
	}
}

func (st *Stack) dispatch(src Addr, seg *segment) {
	key := connKey{localPort: seg.DstPort, remoteAddr: src, remotePort: seg.SrcPort}
	st.mu.Lock()
	c := st.conns[key]
	var l *Listener
	if c == nil {
		l = st.listeners[seg.DstPort]
	}
	st.mu.Unlock()

	switch {
	case c != nil:
		c.handleSegment(seg)
	case l != nil && seg.has(flagSYN) && !seg.has(flagACK):
		st.handleSYN(l, src, seg)
	case seg.has(flagRST):
		// Ignore stray resets.
	default:
		// No socket: refuse with RST so dials fail fast.
		rst := &segment{
			SrcPort: seg.DstPort,
			DstPort: seg.SrcPort,
			Seq:     seg.Ack,
			Ack:     seg.Seq + seg.seqLen(),
			Flags:   flagRST | flagACK,
		}
		st.sendSegment(st.nic.Addr(), src, rst)
	}
}

// handleSYN creates a half-open connection in SYN_RCVD and replies SYN|ACK.
func (st *Stack) handleSYN(l *Listener, src Addr, seg *segment) {
	local := Endpoint{Addr: st.nic.Addr(), Port: seg.DstPort}
	remote := Endpoint{Addr: src, Port: seg.SrcPort}

	st.mu.Lock()
	iss := st.rng.Uint32()
	st.mu.Unlock()

	c := newConn(st, local, remote, stSynRcvd, iss)
	c.listener = l
	c.rcvNxt = seg.Seq + 1
	c.sndWnd = uint32(seg.Window)

	key := connKey{localPort: local.Port, remoteAddr: src, remotePort: remote.Port}
	st.mu.Lock()
	if _, dup := st.conns[key]; dup {
		st.mu.Unlock()
		return // retransmitted SYN for an in-progress handshake
	}
	st.conns[key] = c
	st.mu.Unlock()

	c.mu.Lock()
	c.sendSeg(flagSYN|flagACK, c.iss, nil)
	c.sndNxt = c.iss + 1
	c.armRetransmit()
	c.mu.Unlock()
}

// removeConn drops a connection from the demux table.
func (st *Stack) removeConn(c *Conn) {
	key := connKey{localPort: c.local.Port, remoteAddr: c.remote.Addr, remotePort: c.remote.Port}
	st.mu.Lock()
	if st.conns[key] == c {
		delete(st.conns, key)
	}
	st.mu.Unlock()
}

// deliverAccept hands a now-established connection to its listener.
func (st *Stack) deliverAccept(c *Conn) {
	if c.listener != nil {
		c.listener.deliver(c)
	}
}

// allocPort returns an ephemeral port not currently in use.
func (st *Stack) allocPort() uint16 {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := 0; i < 65536; i++ {
		p := st.nextPort
		st.nextPort++
		if st.nextPort == 0 {
			st.nextPort = 32768
		}
		inUse := false
		for k := range st.conns {
			if k.localPort == p {
				inUse = true
				break
			}
		}
		if _, ok := st.listeners[p]; !ok && !inUse {
			return p
		}
	}
	return 0
}

// Dial opens a TCP connection to remote, blocking until the handshake
// completes or fails. The connection it returns may already hold the
// peer's FIN.
func (st *Stack) Dial(remote Endpoint) (*Conn, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrStackClosed
	}
	iss := st.rng.Uint32() // rand.Rand is not safe for concurrent Dials
	st.mu.Unlock()

	local := Endpoint{Addr: st.nic.Addr(), Port: st.allocPort()}
	c := newConn(st, local, remote, stSynSent, iss)

	key := connKey{localPort: local.Port, remoteAddr: remote.Addr, remotePort: remote.Port}
	st.mu.Lock()
	if _, dup := st.conns[key]; dup {
		st.mu.Unlock()
		return nil, ErrPortInUse
	}
	st.conns[key] = c
	st.mu.Unlock()

	c.mu.Lock()
	c.sendSeg(flagSYN, c.iss, nil)
	c.sndNxt = c.iss + 1
	c.armRetransmit()
	// Wait for ESTABLISHED or failure. Cap handshake retries at the
	// connection level: give up after ~32 RTOs.
	deadline := 32
	for c.state == stSynSent && c.err == nil && deadline > 0 {
		waitCond(c.cond, rto)
		deadline--
	}
	defer c.mu.Unlock()
	switch {
	case c.err != nil:
		return nil, c.err
	case c.state != stSynSent:
		// ESTABLISHED, or already CLOSE_WAIT: a peer that writes and
		// closes at once can land its data and FIN before this goroutine
		// wakes. The handshake succeeded either way, and the bytes wait
		// in the receive buffer.
		return c, nil
	default:
		c.toClosed(ErrTimeout)
		return nil, ErrTimeout
	}
}

// waitCond waits on cond, waking after at most d even without a
// broadcast. Callers loop on their predicate, so a spurious wake is fine.
func waitCond(cond *sync.Cond, d time.Duration) {
	timer := time.AfterFunc(d, cond.Broadcast)
	cond.Wait()
	timer.Stop()
}

// Listener accepts inbound connections on a port.
type Listener struct {
	stack *Stack
	port  uint16

	mu      sync.Mutex
	cond    *sync.Cond
	backlog []*Conn
	closed  bool
}

// Listen binds a listener to port.
func (st *Stack) Listen(port uint16) (*Listener, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, ErrStackClosed
	}
	if _, ok := st.listeners[port]; ok {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	l := &Listener{stack: st, port: port}
	l.cond = sync.NewCond(&l.mu)
	st.listeners[port] = l
	return l, nil
}

func (l *Listener) deliver(c *Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.backlog = append(l.backlog, c)
	l.cond.Broadcast()
}

// Accept blocks until a connection is established or the listener closes.
func (l *Listener) Accept() (*Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.backlog) > 0 {
		c := l.backlog[0]
		l.backlog = l.backlog[1:]
		return c, nil
	}
	return nil, ErrListenerDone
}

// Close unbinds the listener and wakes blocked Accept calls.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()

	l.stack.mu.Lock()
	if l.stack.listeners[l.port] == l {
		delete(l.stack.listeners, l.port)
	}
	l.stack.mu.Unlock()
	return nil
}

// Port returns the bound port.
func (l *Listener) Port() uint16 { return l.port }

// Stats reports payload bytes received and transmitted by this stack.
func (st *Stack) Stats() (rx, tx int64) {
	return st.rxBytes.Load(), st.txBytes.Load()
}
