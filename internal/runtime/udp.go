package runtime

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
)

// udpSocketBuf is the explicit kernel buffer request for every node
// socket. A time-compressed run bursts a whole period's frames at once
// and a reader goroutine on a loaded host may lag far behind the
// socket; the kernel clamps the request to net.core.rmem_max, so this
// asks for plenty and takes what it gets.
const udpSocketBuf = 4 << 20

// AddrBook resolves node ids to socket addresses beyond the locally
// opened sockets — the seam through which a cluster's gossiped address
// directory plugs into the transport. Publish announces a socket this
// process bound; Resolve answers where a remote node's socket lives;
// Piggyback and MergeWire attach and absorb the small directory batches
// that ride every map advertisement, spreading the directory epidemic
// along the same links the data plane uses.
type AddrBook interface {
	Resolve(id overlay.NodeID) (string, bool)
	Publish(id overlay.NodeID, addr string)
	Piggyback(max int) []DirEntry
	MergeWire(entries []DirEntry)
}

// UDPTransport carries frames as binary datagrams over real UDP
// sockets: one loopback socket per node, an address book mapping node
// ids to socket addresses, a per-endpoint outbox that packs the frames
// queued for one destination into one datagram, and a reader goroutine
// per socket decoding datagrams into the node's inbox. With an AddrBook
// installed the transport spans processes: locally unknown destinations
// resolve through the gossiped directory, locally bound sockets are
// published into it, and map frames carry directory piggybacks both
// ways.
//
// Shaping composes: with a LinkPolicy installed, data frames are
// delayed before the socket write and the loss/partition draws apply on
// top of whatever the real network does. A delayed frame is written from
// its timer as a datagram of its own, so the draws stay per frame. The
// raw configuration (nil policy) lets loopback provide its own
// (near-zero) delay — the delivery-ratio parity configuration; a
// WAN-parameterized Model makes localhost behave like the traced swarm.
type UDPTransport struct {
	mu     sync.RWMutex
	nodes  map[overlay.NodeID]*udpNode
	addrs  map[overlay.NodeID]*net.UDPAddr
	remote map[string]*net.UDPAddr // resolved AddrBook endpoints, by string form
	book   AddrBook
	shape  *shaper
	closed bool

	dataSent      atomic.Int64
	dataDelivered atomic.Int64
	dataLost      atomic.Int64
	inboxDropped  atomic.Int64
	malformed     atomic.Int64
	datagrams     atomic.Int64
	frames        atomic.Int64
	delayMu       sync.Mutex
	delaySum      float64 // scenario ms

	wg sync.WaitGroup
}

type udpNode struct {
	conn  *net.UDPConn
	inbox chan Frame
}

// NewUDPTransport returns an empty UDP transport; seed drives the
// shaping draws.
func NewUDPTransport(seed int64) *UDPTransport {
	return &UDPTransport{
		nodes:  make(map[overlay.NodeID]*udpNode),
		addrs:  make(map[overlay.NodeID]*net.UDPAddr),
		remote: make(map[string]*net.UDPAddr),
		shape:  newShaper(seed),
	}
}

// SetAddrBook installs the gossiped address directory (nil: purely
// local, the single-process configuration). Must be set before Open.
func (t *UDPTransport) SetAddrBook(b AddrBook) {
	t.mu.Lock()
	t.book = b
	t.mu.Unlock()
}

// Open binds a loopback UDP socket for the node and starts its reader.
func (t *UDPTransport) Open(id overlay.NodeID) (Endpoint, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	if err != nil {
		return nil, fmt.Errorf("runtime: udp bind for node %d: %w", id, err)
	}
	conn.SetReadBuffer(udpSocketBuf)
	conn.SetWriteBuffer(udpSocketBuf)
	n := &udpNode{conn: conn, inbox: make(chan Frame, inboxCap)}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("runtime: udp transport closed")
	}
	if old, ok := t.nodes[id]; ok {
		old.conn.Close()
	}
	addr := conn.LocalAddr().(*net.UDPAddr)
	t.nodes[id] = n
	t.addrs[id] = addr
	book := t.book
	t.mu.Unlock()

	if book != nil {
		book.Publish(id, addr.String())
	}
	t.wg.Add(1)
	go t.read(n, book)
	e := &udpEndpoint{t: t, id: id, node: n, book: book}
	e.landNow, e.landLater = e.hold, e.writeAlone
	return e, nil
}

// read decodes datagrams into the node's inbox until the socket closes.
// A datagram is decoded whole before any of its frames is delivered: one
// malformed frame drops them all, counted once.
func (t *UDPTransport) read(n *udpNode, book AddrBook) {
	defer t.wg.Done()
	// Sized for the largest legal frame: a map datagram at the
	// maxWireSessions bound plus image (loopback carries datagrams far
	// beyond one physical MTU).
	buf := make([]byte, 64*1024)
	var frames []Frame
	for {
		sz, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed (endpoint Close or transport Close)
		}
		frames, err = decodeDatagram(buf[:sz], frames)
		if err != nil {
			t.malformed.Add(1)
			continue // malformed datagram: drop
		}
		for _, f := range frames {
			if len(f.Dir) > 0 {
				// Absorb the directory piggyback; peers never see it.
				if book != nil {
					book.MergeWire(f.Dir)
				}
				f.Dir = nil
			}
			select {
			case n.inbox <- f:
				if f.Kind == FrameData {
					t.dataDelivered.Add(1)
					if f.Msg.ArrivalMS > 0 {
						t.delayMu.Lock()
						t.delaySum += f.Msg.ArrivalMS
						t.delayMu.Unlock()
					}
				}
			default:
				t.inboxDropped.Add(1)
				if f.Kind == FrameData {
					t.dataLost.Add(1) // inbox overflow: datagram semantics
				}
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
// receive-drop account for the transport's live sockets.
func (t *UDPTransport) Stats() TransportStats {
	t.delayMu.Lock()
	delay := t.delaySum
	t.delayMu.Unlock()
	t.mu.RLock()
	ports := make(map[int]bool, len(t.nodes))
	for _, a := range t.addrs {
		ports[a.Port] = true
	}
	t.mu.RUnlock()
	return TransportStats{
		DataSent:        t.dataSent.Load(),
		DataDelivered:   t.dataDelivered.Load(),
		DataLost:        t.dataLost.Load(),
		DelayScenarioMS: delay,
		InboxDropped:    t.inboxDropped.Load(),
		Malformed:       t.malformed.Load(),
		KernelDrops:     kernelUDPDrops(ports),
		Datagrams:       t.datagrams.Load(),
		Frames:          t.frames.Load(),
	}
}

// Close shuts every socket down and reaps the readers.
func (t *UDPTransport) Close() {
	t.shape.stop()
	t.mu.Lock()
	t.closed = true
	for _, n := range t.nodes {
		n.conn.Close()
	}
	t.nodes = make(map[overlay.NodeID]*udpNode)
	t.addrs = make(map[overlay.NodeID]*net.UDPAddr)
	t.mu.Unlock()
	t.wg.Wait()
}

// resolve answers where a destination's socket lives: a locally bound
// node, or a cross-process one through the address book. False means the
// destination is unknown everywhere (or the transport closed) and the
// frame evaporates.
func (t *UDPTransport) resolve(book AddrBook, to overlay.NodeID) (*net.UDPAddr, bool) {
	t.mu.RLock()
	addr, ok := t.addrs[to]
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return nil, false
	}
	if !ok && book != nil {
		addr, ok = t.resolveRemote(book, to)
	}
	return addr, ok
}

// emit puts one datagram of n frames on the sender's socket — the
// transport's only socket write.
func (t *UDPTransport) emit(from *udpNode, addr *net.UDPAddr, b []byte, n int) {
	from.conn.WriteToUDP(b, addr)
	t.datagrams.Add(1)
	t.frames.Add(int64(n))
}

// resolveRemote answers a cross-process destination from the address
// book, caching the parsed socket address by its string form (a node
// that rebinds publishes a new string, so the cache never serves a
// stale binding).
func (t *UDPTransport) resolveRemote(book AddrBook, id overlay.NodeID) (*net.UDPAddr, bool) {
	s, ok := book.Resolve(id)
	if !ok || s == "" {
		return nil, false
	}
	t.mu.RLock()
	addr, hit := t.remote[s]
	t.mu.RUnlock()
	if hit {
		return addr, true
	}
	addr, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		return nil, false
	}
	t.mu.Lock()
	t.remote[s] = addr
	t.mu.Unlock()
	return addr, true
}

type udpEndpoint struct {
	t    *UDPTransport
	id   overlay.NodeID
	node *udpNode
	book AddrBook

	// out is the outbox: one pending datagram per destination queued
	// since the last Flush, in first-queued order. It belongs to the
	// goroutine that calls Queue and Flush; truncating it on Flush keeps
	// every element's buffer for the next burst.
	out []pendingDatagram
	// The shaper's two landing hooks, bound once (Queue runs per frame).
	landNow, landLater func(Frame)
}

// pendingDatagram is the frames queued for one destination, already
// encoded back to back.
type pendingDatagram struct {
	to     overlay.NodeID
	addr   *net.UDPAddr
	buf    []byte
	frames int
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

// Flush writes one datagram per destination with frames pending.
func (e *udpEndpoint) Flush() {
	for i := range e.out {
		d := &e.out[i]
		e.t.emit(e.node, d.addr, d.buf, d.frames)
	}
	e.out = e.out[:0]
}

func (e *udpEndpoint) Send(f Frame) {
	e.Queue(f)
	e.Flush()
}

// hold appends a landed frame to its destination's pending datagram,
// attaching the directory piggyback to map frames. A datagram the frame
// would push past datagramBudget is written first.
func (e *udpEndpoint) hold(f Frame) {
	if f.Kind == frameDropped {
		e.t.dataLost.Add(1)
		return
	}
	d := e.pending(f.Msg.To)
	if d == nil {
		return
	}
	if f.Kind == FrameMap && e.book != nil {
		f.Dir = e.book.Piggyback(maxMapDirEntries)
	}
	mark := len(d.buf)
	d.buf = AppendFrame(d.buf, f)
	if mark > 0 && len(d.buf) > datagramBudget {
		e.t.emit(e.node, d.addr, d.buf[:mark], d.frames)
		d.buf = d.buf[:copy(d.buf, d.buf[mark:])]
		d.frames = 0
	}
	d.frames++
}

// pending finds or opens the outbox entry for a destination, resolving
// its address once per datagram; nil when the destination is unknown.
func (e *udpEndpoint) pending(to overlay.NodeID) *pendingDatagram {
	for i := range e.out {
		if e.out[i].to == to {
			return &e.out[i]
		}
	}
	addr, ok := e.t.resolve(e.book, to)
	if !ok {
		return nil
	}
	n := len(e.out)
	if n < cap(e.out) {
		e.out = e.out[:n+1]
	} else {
		e.out = append(e.out, pendingDatagram{})
	}
	d := &e.out[n]
	d.to, d.addr, d.buf, d.frames = to, addr, d.buf[:0], 0
	return d
}

// writeAlone is the timer-side landing of a delayed frame: a datagram of
// its own, never the outbox, which only the owning goroutine may touch.
// (No directory piggyback here: the shaper never delays a map frame.)
func (e *udpEndpoint) writeAlone(f Frame) {
	if f.Kind == frameDropped {
		e.t.dataLost.Add(1)
		return
	}
	if addr, ok := e.t.resolve(e.book, f.Msg.To); ok {
		e.t.emit(e.node, addr, EncodeFrame(f), 1)
	}
}

func (e *udpEndpoint) Recv() <-chan Frame { return e.node.inbox }

func (e *udpEndpoint) Close() {
	e.t.mu.Lock()
	if e.t.nodes[e.id] == e.node {
		delete(e.t.nodes, e.id)
		delete(e.t.addrs, e.id)
	}
	e.t.mu.Unlock()
	e.node.conn.Close()
}
