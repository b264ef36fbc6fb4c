package runtime

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

// FrameKind distinguishes the payloads peers exchange on the wire.
type FrameKind uint8

// The live protocol's frame alphabet. Data frames carry exactly the
// netmodel.Message shape the simulator's transit phase drains; the
// control-plane frames (map, request, deny) are the parts of the gossip
// protocol the simulator resolves in shared memory.
const (
	// FrameMap is the periodic buffer-map advertisement: the 620-bit
	// availability image plus the sender's high-water mark, advertised
	// supplier rate, and known session timeline (the paper's
	// synchronization metadata rides on the map exchange).
	FrameMap FrameKind = iota + 1
	// FrameRequest pulls one segment (Msg.Seg) from the destination.
	FrameRequest
	// FrameDeny answers a request the supplier had no capacity (or no
	// copy) for; the requester refunds its inbound budget and may retry
	// at another supplier.
	FrameDeny
	// FrameData lands one granted segment — the live counterpart of the
	// simulator's in-flight Message popping due.
	FrameData

	// The control-plane alphabet (internal/cluster): frames exchanged
	// between process agents, not peers. They share the codec and the
	// shaped transports with the data plane, so a partition or loss
	// burst severs membership and event delivery as realistically as it
	// severs segments.

	// FrameHello bootstraps a joining process against the starter node:
	// an authenticated Ctrl payload carrying the joiner's control
	// address. The starter answers with the welcome (shard assignment,
	// scenario, the shard address table so far), a sequenced FrameEvent
	// like any other message.
	FrameHello
	// Kind 6 is retired (it carried gossiped address batches); the
	// decoder rejects it.
	_
	// FrameEvent carries one control-plane message (a resolved scenario
	// directive, a status report, a metrics report chunk) as an
	// authenticated Ctrl payload, sequenced by Msg.Sent.
	FrameEvent
	// FrameAck acknowledges a sequenced FrameEvent by sequence number
	// (Msg.Seg carries the acked sequence). An ack carries no payload:
	// an answer travels as a message of its own.
	FrameAck
	// FramePing is the coordinator's keepalive probe to a suspected
	// worker (Msg.Seg carries a nonce). The worker's link answers from
	// its reader goroutine, so a pong proves the process is alive even
	// while its run loop is wedged.
	FramePing
	// FramePong answers a FramePing, echoing the nonce in Msg.Seg.
	FramePong
)

// String implements fmt.Stringer.
func (k FrameKind) String() string {
	switch k {
	case FrameMap:
		return "map"
	case FrameRequest:
		return "request"
	case FrameDeny:
		return "deny"
	case FrameData:
		return "data"
	case FrameHello:
		return "hello"
	case FrameEvent:
		return "event"
	case FrameAck:
		return "ack"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	}
	return "frame(?)"
}

// Control reports whether the kind belongs to the cluster control plane
// (agent-to-agent traffic) rather than the peer protocol.
func (k FrameKind) Control() bool { return k >= FrameHello }

// SessionInfo is one timeline session as gossiped on map frames.
type SessionInfo struct {
	Source overlay.NodeID
	Begin  segment.ID
	End    segment.ID // segment.None while the session is open
}

// Frame is one unit on a live transport. Msg carries the shared
// netmodel.Message shape on every frame (From and To always; Seg for
// request/deny/data; Sent is the sender's scheduling period); the
// remaining fields are the FrameMap payload.
type Frame struct {
	Kind FrameKind
	Msg  netmodel.Message

	// ReReq marks a FrameRequest as a re-request: the requester already
	// asked for this segment and the exchange timed out without data or
	// deny — on a lossy link, the loss-induced retry the simulator
	// counts as NetReRequests. One bit on the wire (the kind byte's high
	// bit).
	ReReq bool

	// Map payload (FrameMap only). The availability window's anchor id
	// rides inside MapImg (the wire image's 20-bit anchor field).
	MapImg   []byte // buffer.Map wire image (620 bits for B=600)
	MaxSeen  segment.ID
	Rate     float64 // advertised supplier rate R(j), segments/second
	Sessions []SessionInfo

	// Ctrl is the opaque control payload of FrameHello, FrameEvent and
	// FrameAck — sealed (HMAC-authenticated) by internal/cluster; the
	// codec only moves the bytes. Msg.Sent carries the control sequence
	// number; FrameAck's Msg.Seg carries the acked sequence.
	Ctrl []byte
}

// Endpoint is one node's attachment to a Transport: an outbox that
// shapes, coalesces and routes frames, and an inbox channel the peer
// goroutine selects on. Nothing here blocks — a frame to a full inbox, a
// detached destination or across a severed link is dropped, exactly like
// a datagram. Queue, Flush and Send belong to the one goroutine that owns
// the endpoint (the peer's); the outbox is unsynchronized.
type Endpoint interface {
	// Queue accepts one frame for delivery to f.Msg.To. A transport that
	// writes datagrams may hold the frame until the next Flush, sharing a
	// datagram with the other frames queued for that destination's
	// address.
	Queue(f Frame)
	// Flush writes everything Queue is holding.
	Flush()
	// Send is Queue followed by Flush: the frame leaves at once.
	Send(f Frame)
	// Recv is the endpoint's inbox, to be called afresh for every
	// receive (a frame may wait behind the channel it returns until the
	// next call). It is never closed; peers exit via their control
	// channel, not by observing transport shutdown.
	Recv() <-chan Frame
	// Close detaches the endpoint: subsequent frames to this node are
	// dropped.
	Close()
}

// Transport wires a set of node endpoints together. Implementations
// must support concurrent sends from many peer goroutines, each on its
// own endpoint, and mid-run Open (churn joiners). The
// delay/loss/partition behavior of a transport comes from the installed
// netmodel.LinkPolicy — the same policy object the simulator's heaps
// consult, mutated live by scenario events (latency shifts, loss bursts,
// partitions) through the runner.
type Transport interface {
	// Open attaches a node and returns its endpoint. Opening an id
	// twice replaces the previous attachment.
	Open(id overlay.NodeID) (Endpoint, error)
	// SetPolicy installs the delay/loss/partition policy (nil: deliver
	// everything immediately — the raw transport).
	SetPolicy(p netmodel.LinkPolicy)
	// SetTick publishes the current scheduling period to the policy
	// clock (loss bursts are tick-bounded) and the wall-milliseconds
	// that correspond to one scenario millisecond (time compression for
	// shaped delays).
	SetTick(tick int, wallPerScenarioMS float64)
	// Stats returns cumulative data-plane counters.
	Stats() TransportStats
	// Close shuts the transport down; in-flight shaped frames are
	// dropped.
	Close()
}

// TransportStats counts the data plane (FrameData only — maps, requests
// and denies are control traffic, accounted in bits by the peers).
// DelayScenarioMS sums the shaped (scenario-time) delay of delivered
// data frames; it stays zero on an unshaped transport, where the real
// network provides the delay.
type TransportStats struct {
	DataSent        int64
	DataDelivered   int64
	DataLost        int64 // policy loss draws + severed links
	DelayScenarioMS float64

	// Drop accounting across every frame kind (not just data): frames
	// lost to a full inbox, datagrams that failed to decode, and — on
	// the UDP transport — receive drops the kernel reported against the
	// transport's socket (the buffer-pressure artifact explicit socket
	// sizing is meant to shrink).
	InboxDropped int64
	Malformed    int64
	KernelDrops  int64

	// Datagrams written and the frames (of every kind) they carried;
	// Frames/Datagrams is the coalescing factor. Both stay zero on the
	// channel transport, which moves frames by value.
	Datagrams int64
	Frames    int64
}

// inboxCounters is the delivery account both transports keep, and
// deliver is their one way into a node's inbox.
type inboxCounters struct {
	dataSent      atomic.Int64
	dataDelivered atomic.Int64
	dataLost      atomic.Int64
	inboxDropped  atomic.Int64
	delayMu       sync.Mutex
	delaySum      float64 // scenario ms
}

// deliver hands one frame to an inbox without blocking: a full inbox
// drops it, like a datagram.
func (c *inboxCounters) deliver(q *inbox, f Frame) {
	if !q.put(f) {
		c.inboxDropped.Add(1)
		if f.Kind == FrameData {
			c.dataLost.Add(1)
		}
		return
	}
	if f.Kind == FrameData {
		c.dataDelivered.Add(1)
		if f.Msg.ArrivalMS > 0 {
			c.delayMu.Lock()
			c.delaySum += f.Msg.ArrivalMS
			c.delayMu.Unlock()
		}
	}
}

// inboxChan is the channel part of an inbox. 32 frames (5 KB) carry a
// peer's ordinary traffic between two receives; a burst past that waits
// in the overflow queue, so only the inboxes that do fill pay for the
// room up to inboxCap.
const inboxChan = 32

// inbox is one node's queue of landed frames, inboxCap frames at most: a
// small buffered channel the peer goroutine selects on, and a FIFO
// overflow queue for frames that land while the channel is full. spilled
// is set while the overflow holds frames. A sender takes mu only when
// spilled is set or the channel is full, and then queues behind the
// overflow, so frames from one sender keep their order. The receiver
// refills the channel from the overflow (recv) once it has run dry,
// before handing it out, so a receive never takes the lock while the
// channel still holds frames.
type inbox struct {
	ch      chan Frame
	spilled atomic.Bool

	mu   sync.Mutex
	over []Frame // over[head:] is the overflow, oldest first
	head int
}

func newInbox() *inbox { return &inbox{ch: make(chan Frame, inboxChan)} }

// put queues f without blocking; false means the inbox already holds
// inboxCap frames and f is dropped.
func (q *inbox) put(f Frame) bool {
	if !q.spilled.Load() && q.offer(f) {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ch)+len(q.over)-q.head >= inboxCap {
		return false
	}
	if len(q.over) == cap(q.over) && q.head > 0 {
		// Reuse the prefix the receiver consumed before growing.
		n := copy(q.over, q.over[q.head:])
		clear(q.over[n:])
		q.over, q.head = q.over[:n], 0
	}
	q.over = append(q.over, f)
	q.spilled.Store(true)
	// The receiver may have emptied the channel since the offer above
	// while spilled was still clear, and be waiting on it: move what fits
	// now, so no frame sits in the overflow behind an empty channel.
	q.refill()
	return true
}

// offer sends f on the channel if it has room.
func (q *inbox) offer(f Frame) bool {
	select {
	case q.ch <- f:
		return true
	default:
		return false
	}
}

// refill moves overflow frames, oldest first, into the channel while it
// has room. Caller holds mu.
func (q *inbox) refill() {
	for q.head < len(q.over) && q.offer(q.over[q.head]) {
		q.over[q.head] = Frame{} // drop the payload references
		q.head++
	}
	if q.head == len(q.over) {
		q.over, q.head = q.over[:0], 0
		q.spilled.Store(false)
	}
}

// recv is Endpoint.Recv: the channel, refilled from the overflow first
// when it has run dry. Only the receiving goroutine calls it, once per
// receive. After a refill the channel is either full or holds every
// queued frame, so a receiver never waits on an empty channel while
// frames sit in the overflow.
func (q *inbox) recv() <-chan Frame {
	if q.spilled.Load() && len(q.ch) == 0 {
		q.mu.Lock()
		q.refill()
		q.mu.Unlock()
	}
	return q.ch
}

// queued counts the frames waiting, channel and overflow, without
// refilling: the inbox depth.
func (q *inbox) queued() int {
	if !q.spilled.Load() {
		return len(q.ch)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ch) + len(q.over) - q.head
}

// queuedFrames is the depth of an endpoint's inbox; an endpoint without
// one of this package's inboxes reports its channel's length.
func queuedFrames(ep Endpoint) int {
	if q, ok := ep.(interface{ queued() int }); ok {
		return q.queued()
	}
	return len(ep.Recv())
}

// stats reads the counters into the TransportStats fields they own.
func (c *inboxCounters) stats() TransportStats {
	c.delayMu.Lock()
	delay := c.delaySum
	c.delayMu.Unlock()
	return TransportStats{
		DataSent:        c.dataSent.Load(),
		DataDelivered:   c.dataDelivered.Load(),
		DataLost:        c.dataLost.Load(),
		DelayScenarioMS: delay,
		InboxDropped:    c.inboxDropped.Load(),
	}
}

// shaper applies a netmodel.LinkPolicy to frames on the wall clock: the
// transit seam's second consumer, and the one gate the cluster control
// plane's frames pass too (UDPTransport.SendControl). Data frames and
// control-plane frames are delayed by DelayMS (compressed into wall
// time) and subjected to the loss draw at landing; every frame kind
// respects partitions, mirroring the simulator (buffer maps and requests
// stop crossing a severed link, but only data messages are lossy — and
// the control plane, whose reliability comes from the cluster layer's
// retries, not the wire). The policy is the sender's: a process polices
// what it sends, never what it receives. The zero shaper (nil policy)
// delivers everything immediately.
//
// Every peer goroutine routes through one shaper, so the policy and the
// stopped flag are atomics: an unshaped frame reads both and lands
// without taking a lock. mu guards only what a shaped frame draws from
// — the generator, the tick and the time compression.
type shaper struct {
	policy  atomic.Pointer[installedPolicy] // nil: no policy
	stopped atomic.Bool

	mu      sync.Mutex
	rng     *rand.Rand
	tick    int
	wallPer float64 // wall ms per scenario ms (1/TimeScale scaling folded in)
}

// installedPolicy boxes a LinkPolicy for the shaper's atomic pointer.
type installedPolicy struct{ netmodel.LinkPolicy }

func newShaper(seed int64) *shaper {
	return &shaper{rng: rand.New(rand.NewSource(seed)), wallPer: 1}
}

func (s *shaper) setPolicy(p netmodel.LinkPolicy) {
	if p == nil {
		s.policy.Store(nil)
		return
	}
	s.policy.Store(&installedPolicy{p})
}

func (s *shaper) setTick(tick int, wallPerScenarioMS float64) {
	s.mu.Lock()
	s.tick = tick
	s.wallPer = wallPerScenarioMS
	s.mu.Unlock()
}

func (s *shaper) stop() { s.stopped.Store(true) }

// route decides one frame's fate: blocked (drop now), or deliver after
// a wall-clock delay (0 for map, request and deny frames and on unshaped
// transports).
// The loss draw happens at delivery time — like the transit phase's
// pop — so a partition or loss burst that begins mid-flight still
// catches the frame. An immediate frame is handed to now on the caller's
// goroutine, a delayed one to later on a timer goroutine — the split
// that lets a transport keep an unsynchronized per-sender outbox behind
// now. Only the delayed branch copies the frame to the heap, for its
// timer.
func (s *shaper) route(f Frame, now, later func(Frame)) (sent bool) {
	if s.stopped.Load() {
		return false
	}
	var wallDelay time.Duration
	if p := s.policy.Load(); p != nil {
		s.mu.Lock()
		if p.Blocked(f.Msg.From, f.Msg.To) {
			s.mu.Unlock()
			return false
		}
		if f.Kind == FrameData || f.Kind.Control() {
			jitter := 0.0
			if j := p.JitterMS(); j > 0 {
				jitter = s.rng.Float64() * j
			}
			scenarioMS := p.DelayMS(f.Msg.From, f.Msg.To, jitter)
			if f.Kind == FrameData {
				// Record the shaped delay on the message. A control frame is
				// sealed over its encoding, ArrivalMS included: it must cross
				// unchanged.
				f.Msg.ArrivalMS = scenarioMS
			}
			wallDelay = time.Duration(scenarioMS * s.wallPer * float64(time.Millisecond))
		}
		s.mu.Unlock()
	}
	if wallDelay <= 0 {
		s.land(f, now)
		return true
	}
	// In-flight timers are not drained on shutdown: land re-checks the
	// stopped flag, so frames delayed past Close simply evaporate (the
	// documented drop-on-close semantics).
	delayed := f
	time.AfterFunc(wallDelay, func() { s.land(delayed, later) })
	return true
}

// land applies the delivery-time policy checks (partition, loss) and
// hands surviving frames to deliver.
func (s *shaper) land(f Frame, deliver func(Frame)) {
	if s.stopped.Load() {
		return
	}
	if p := s.policy.Load(); p != nil && s.dropsAtLanding(p, &f) {
		if f.Kind == FrameData {
			deliver(Frame{Kind: frameDropped, Msg: f.Msg})
		}
		return
	}
	deliver(f)
}

// dropsAtLanding reports whether the policy severs f's link or loses
// f as it lands.
func (s *shaper) dropsAtLanding(p netmodel.LinkPolicy, f *Frame) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.Blocked(f.Msg.From, f.Msg.To) {
		return true
	}
	if f.Kind != FrameData && !f.Kind.Control() {
		return false
	}
	loss := p.LossProb(s.tick)
	return loss > 0 && s.rng.Float64() < loss
}

// frameDropped is the internal sentinel land hands to the transport's
// deliver hook for a lost data frame, so stats can count it; it never
// reaches a peer inbox.
const frameDropped FrameKind = 0
