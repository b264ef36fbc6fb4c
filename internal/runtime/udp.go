package runtime

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
)

// udpSocketBuf is the explicit kernel buffer request for the
// transport's socket. A time-compressed run bursts a whole period's
// frames at once and the reader goroutine on a loaded host may lag far
// behind the socket; the kernel clamps the request to net.core.rmem_max,
// so this asks for plenty and takes what it gets.
const udpSocketBuf = 4 << 20

// AddrBook answers where a node not attached to this transport lives:
// the socket address of the process that hosts it. A cluster resolves a
// node to its owner shard's address; a single process needs no book.
// Resolve runs on peer goroutines, concurrently.
type AddrBook interface {
	Resolve(id overlay.NodeID) (string, bool)
}

// UDPTransport carries frames as binary datagrams over a real UDP
// socket: one socket per transport (so per process), bound by Bind or at
// the first Open, and one reader goroutine that decodes each datagram
// and hands every peer frame to the inbox of the local node its Msg.To
// names. A frame for a node not attached here evaporates, as it would at
// a closed port. Control-plane frames (Kind.Control) never reach an
// inbox: the reader hands them to the handler SetControl installed — the
// cluster's control link, which rides the same socket. Each endpoint's
// outbox packs the frames queued for one destination address into one
// datagram, so frames for several nodes behind one socket share it.
// Every frame crosses the kernel, even between nodes of one process.
// With an AddrBook installed the transport spans processes: destinations
// not attached here resolve through the book.
//
// Shaping composes: with a LinkPolicy installed, data frames are
// delayed before the socket write and the loss/partition draws apply on
// top of whatever the real network does. A delayed frame is written from
// its timer as a datagram of its own, so the draws stay per frame. The
// raw configuration (nil policy) lets loopback provide its own
// (near-zero) delay — the delivery-ratio parity configuration; a
// WAN-parameterized Model makes localhost behave like the traced swarm.
type UDPTransport struct {
	mu      sync.RWMutex
	conn    *net.UDPConn // nil until the first Open
	addr    *net.UDPAddr // conn's local address
	inboxes map[overlay.NodeID]*inbox
	remote  map[string]*net.UDPAddr // resolved AddrBook endpoints, by string form
	book    AddrBook
	ctrl    func([]byte) // control-frame handler (SetControl); nil drops them
	shape   *shaper
	closed  bool

	inboxCounters
	malformed atomic.Int64
	datagrams atomic.Int64
	frames    atomic.Int64

	wg sync.WaitGroup
}

// NewUDPTransport returns an empty UDP transport; seed drives the
// shaping draws.
func NewUDPTransport(seed int64) *UDPTransport {
	return &UDPTransport{
		inboxes: make(map[overlay.NodeID]*inbox),
		remote:  make(map[string]*net.UDPAddr),
		shape:   newShaper(seed),
	}
}

// SetAddrBook installs the address book (nil: purely local, the
// single-process configuration). Must be set before the first Open:
// each endpoint keeps the book it was opened with.
func (t *UDPTransport) SetAddrBook(b AddrBook) {
	t.mu.Lock()
	t.book = b
	t.mu.Unlock()
}

// Open attaches the node's inbox to the transport's socket, binding the
// socket and starting its reader on the first call. Opening an attached
// id again rebinds it to a fresh inbox.
func (t *UDPTransport) Open(id overlay.NodeID) (Endpoint, error) {
	q := newInbox()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("runtime: udp transport closed")
	}
	if t.conn == nil {
		if err := t.bind(""); err != nil {
			t.mu.Unlock()
			return nil, fmt.Errorf("runtime: udp bind for node %d: %w", id, err)
		}
	}
	t.inboxes[id] = q
	conn, book := t.conn, t.book
	t.mu.Unlock()

	e := &udpEndpoint{t: t, id: id, conn: conn, inbox: q, book: book}
	e.landNow, e.landLater = e.hold, e.writeAlone
	return e, nil
}

// Bind binds the transport's socket at listen ("" for an ephemeral
// loopback port) and starts its reader, returning the bound address — for
// a caller that needs the address before any node attaches (the cluster
// control link). A bound transport keeps its socket.
func (t *UDPTransport) Bind(listen string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", fmt.Errorf("runtime: udp transport closed")
	}
	if t.conn == nil {
		if err := t.bind(listen); err != nil {
			return "", fmt.Errorf("runtime: udp bind: %w", err)
		}
	}
	return t.addr.String(), nil
}

// SetControl installs the control-plane handler. The reader hands it
// every control frame, one at a time and outside the transport's lock
// (the handler may answer through this transport), as the frame's bytes
// exactly as the decoder delimited them in the datagram — valid only
// during the call, since the reader reuses its buffer. Authenticating
// and parsing them (OpenControl) is the handler's business. nil drops
// control frames.
func (t *UDPTransport) SetControl(fn func(wire []byte)) {
	t.mu.Lock()
	t.ctrl = fn
	t.mu.Unlock()
}

// bind opens the transport's socket and starts its reader. Caller holds
// the lock.
func (t *UDPTransport) bind(listen string) error {
	laddr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	if listen != "" {
		var err error
		if laddr, err = net.ResolveUDPAddr("udp", listen); err != nil {
			return err
		}
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return err
	}
	conn.SetReadBuffer(udpSocketBuf)
	conn.SetWriteBuffer(udpSocketBuf)
	t.conn, t.addr = conn, conn.LocalAddr().(*net.UDPAddr)
	// A book answers a detached local node with this socket's string: it
	// must resolve to the very address local nodes do.
	t.remote[t.addr.String()] = t.addr
	t.wg.Add(1)
	go t.read(conn)
	return nil
}

// read decodes datagrams and demultiplexes their frames — peer frames
// into the addressed nodes' inboxes, control frames to the control
// handler — until the socket closes. A datagram is decoded whole before
// any of its frames is delivered: one malformed frame drops them all,
// counted once.
func (t *UDPTransport) read(conn *net.UDPConn) {
	defer t.wg.Done()
	// Sized for the largest legal frame: a map datagram at the
	// maxWireSessions bound plus image (loopback carries datagrams far
	// beyond one physical MTU).
	buf := make([]byte, 64*1024)
	var frames []Frame
	var ends []int
	for {
		sz, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed (transport Close)
		}
		frames, ends, err = decodeDatagram(buf[:sz], frames, ends)
		if err != nil {
			t.malformed.Add(1)
			continue // malformed datagram: drop
		}
		t.mu.RLock()
		handle := t.ctrl
		for _, f := range frames {
			if q, ok := t.inboxes[f.Msg.To]; ok && !f.Kind.Control() {
				t.deliver(q, f)
			}
		}
		t.mu.RUnlock()
		if handle == nil {
			continue
		}
		for i, f := range frames {
			if f.Kind.Control() {
				start := 0
				if i > 0 {
					start = ends[i-1]
				}
				handle(buf[start:ends[i]])
			}
		}
	}
}

// SetPolicy installs the delay/loss/partition policy.
func (t *UDPTransport) SetPolicy(p netmodel.LinkPolicy) { t.shape.setPolicy(p) }

// SetTick publishes the scheduling period and time compression.
func (t *UDPTransport) SetTick(tick int, wallPerScenarioMS float64) {
	t.shape.setTick(tick, wallPerScenarioMS)
}

// Stats returns cumulative data-plane counters plus the kernel's own
// receive-drop account for the transport's socket.
func (t *UDPTransport) Stats() TransportStats {
	port := 0 // unbound: no socket, no drops
	t.mu.RLock()
	if t.addr != nil {
		port = t.addr.Port
	}
	t.mu.RUnlock()
	st := t.stats()
	st.Malformed = t.malformed.Load()
	st.KernelDrops = kernelUDPDrops(port)
	st.Datagrams = t.datagrams.Load()
	st.Frames = t.frames.Load()
	return st
}

// Close shuts the socket down and reaps the reader.
func (t *UDPTransport) Close() {
	t.shape.stop()
	t.mu.Lock()
	t.closed = true
	if t.conn != nil {
		t.conn.Close()
	}
	t.inboxes = make(map[overlay.NodeID]*inbox)
	t.mu.Unlock()
	t.wg.Wait()
}

// resolve answers where a destination's socket lives: this transport's
// own for a locally attached node, or a cross-process one through the
// address book. False means the destination is unknown everywhere (or
// the transport closed) and the frame evaporates.
func (t *UDPTransport) resolve(book AddrBook, to overlay.NodeID) (*net.UDPAddr, bool) {
	t.mu.RLock()
	_, local := t.inboxes[to]
	addr, closed := t.addr, t.closed
	t.mu.RUnlock()
	switch {
	case closed:
		return nil, false
	case local:
		return addr, true
	case book != nil:
		return t.resolveRemote(book, to)
	}
	return nil, false
}

// emit puts one datagram of n frames on the socket — the transport's
// only socket write.
func (t *UDPTransport) emit(conn *net.UDPConn, addr *net.UDPAddr, b []byte, n int) {
	conn.WriteToUDP(b, addr)
	t.datagrams.Add(1)
	t.frames.Add(int64(n))
}

// SendControl routes one encoded control frame — a single-frame
// datagram, as the cluster's seal produced it — through the shaper to
// the socket at addr and writes exactly those bytes, as a datagram of
// their own: the policy judges the header's From and To (the cluster's
// shard anchors) exactly as it judges peer frames, delaying the frame
// and drawing its loss at landing. b must not change afterwards (a
// delayed frame is written from its timer). An address that does not
// parse, or bytes that do not start with a control frame's header, are
// an error; a shaped drop is silent, like a datagram's.
func (t *UDPTransport) SendControl(b []byte, addr string) error {
	var hdr Frame
	if err := decodeHeader(b, &hdr); err != nil {
		return err
	}
	if !hdr.Kind.Control() {
		return fmt.Errorf("runtime: SendControl given a %s frame", hdr.Kind)
	}
	to, err := t.udpAddr(addr)
	if err != nil {
		return err
	}
	t.mu.RLock()
	conn := t.conn
	t.mu.RUnlock()
	if conn == nil {
		return fmt.Errorf("runtime: udp transport not bound")
	}
	write := func(Frame) { t.emit(conn, to, b, 1) }
	t.shape.route(hdr, write, write)
	return nil
}

// resolveRemote answers a cross-process destination from the address
// book.
func (t *UDPTransport) resolveRemote(book AddrBook, id overlay.NodeID) (*net.UDPAddr, bool) {
	s, ok := book.Resolve(id)
	if !ok || s == "" {
		return nil, false
	}
	addr, err := t.udpAddr(s)
	return addr, err == nil
}

// udpAddr parses a socket address, caching it by its string form. One
// string maps to one *net.UDPAddr for the life of the
// transport, so the outbox can compare addresses by pointer.
func (t *UDPTransport) udpAddr(s string) (*net.UDPAddr, error) {
	t.mu.RLock()
	addr, hit := t.remote[s]
	t.mu.RUnlock()
	if hit {
		return addr, nil
	}
	addr, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		return nil, fmt.Errorf("runtime: bad udp address %q: %w", s, err)
	}
	t.mu.Lock()
	if first, raced := t.remote[s]; raced {
		addr = first
	} else {
		t.remote[s] = addr
	}
	t.mu.Unlock()
	return addr, nil
}

type udpEndpoint struct {
	t     *UDPTransport
	id    overlay.NodeID
	conn  *net.UDPConn
	inbox *inbox
	book  AddrBook

	// out is the outbox: one pending datagram per destination address
	// queued since the last Flush, in first-queued order; dests caches
	// where each destination node resolved to in the meantime, so a
	// burst asks the address book once per node. Both belong to the
	// goroutine that calls Queue and Flush; truncating them on Flush
	// keeps every element's buffer for the next burst.
	out   []pendingDatagram
	dests []resolvedDest
	// The shaper's two landing hooks, bound once (Queue runs per frame).
	landNow, landLater func(Frame)
}

// pendingDatagram is the frames queued for one destination address,
// already encoded back to back.
type pendingDatagram struct {
	addr   *net.UDPAddr
	buf    []byte
	frames int
}

// resolvedDest is one destination node resolved since the last Flush:
// the index of its address's pending datagram, -1 when it is unknown.
type resolvedDest struct {
	to overlay.NodeID
	d  int
}

// Queue routes one frame through the shaper. A frame that lands at once
// joins the outbox; one the policy delays is written alone when its
// timer fires, with its partition and loss draws taken then.
func (e *udpEndpoint) Queue(f Frame) {
	f.Msg.From = e.id
	if f.Kind == FrameData {
		e.t.dataSent.Add(1)
	}
	if !e.t.shape.route(f, e.landNow, e.landLater) && f.Kind == FrameData {
		e.t.dataLost.Add(1) // severed at injection
	}
}

// Flush writes one datagram per destination address with frames pending.
func (e *udpEndpoint) Flush() {
	for i := range e.out {
		d := &e.out[i]
		e.t.emit(e.conn, d.addr, d.buf, d.frames)
	}
	e.out = e.out[:0]
	e.dests = e.dests[:0]
}

func (e *udpEndpoint) Send(f Frame) {
	e.Queue(f)
	e.Flush()
}

// hold appends a landed frame to its destination address's pending
// datagram. A datagram the frame would push past datagramBudget is
// written first.
func (e *udpEndpoint) hold(f Frame) {
	if f.Kind == frameDropped {
		e.t.dataLost.Add(1)
		return
	}
	d := e.pending(f.Msg.To)
	if d == nil {
		return
	}
	mark := len(d.buf)
	d.buf = AppendFrame(d.buf, f)
	if mark > 0 && len(d.buf) > datagramBudget {
		e.t.emit(e.conn, d.addr, d.buf[:mark], d.frames)
		d.buf = d.buf[:copy(d.buf, d.buf[mark:])]
		d.frames = 0
	}
	d.frames++
}

// pending finds or opens the outbox entry for a destination's address,
// resolving the destination once per Flush; nil when it is unknown.
func (e *udpEndpoint) pending(to overlay.NodeID) *pendingDatagram {
	d, seen := -1, false
	for _, r := range e.dests {
		if r.to == to {
			d, seen = r.d, true
			break
		}
	}
	if !seen {
		if addr, ok := e.t.resolve(e.book, to); ok {
			d = e.datagramFor(addr)
		}
		e.dests = append(e.dests, resolvedDest{to: to, d: d})
	}
	if d < 0 {
		return nil
	}
	return &e.out[d]
}

// datagramFor returns the index of the pending datagram for addr,
// opening one when none is pending.
func (e *udpEndpoint) datagramFor(addr *net.UDPAddr) int {
	for i := range e.out {
		if e.out[i].addr == addr {
			return i
		}
	}
	n := len(e.out)
	if n < cap(e.out) {
		e.out = e.out[:n+1]
	} else {
		e.out = append(e.out, pendingDatagram{})
	}
	d := &e.out[n]
	d.addr, d.buf, d.frames = addr, d.buf[:0], 0
	return n
}

// writeAlone is the timer-side landing of a delayed frame: a datagram of
// its own, never the outbox, which only the owning goroutine may touch.
func (e *udpEndpoint) writeAlone(f Frame) {
	if f.Kind == frameDropped {
		e.t.dataLost.Add(1)
		return
	}
	if addr, ok := e.t.resolve(e.book, f.Msg.To); ok {
		e.t.emit(e.conn, addr, EncodeFrame(f), 1)
	}
}

func (e *udpEndpoint) Recv() <-chan Frame { return e.inbox.recv() }

func (e *udpEndpoint) queued() int { return e.inbox.queued() }

// Close detaches the node's inbox; the socket stays with the transport.
// Frames still addressed to the node evaporate at the reader.
func (e *udpEndpoint) Close() {
	e.t.mu.Lock()
	if e.t.inboxes[e.id] == e.inbox {
		delete(e.t.inboxes, e.id)
	}
	e.t.mu.Unlock()
}
