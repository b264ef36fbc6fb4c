package runtime

import (
	"sync"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
)

// inboxCap bounds one node's inbox. A peer receives a few dozen frames
// per period (M maps, its inbound budget in requests and data, denies),
// but a hub at a period burst holds more than 256; the cap is headroom
// for bursty scheduling, and a frame past it drops like a datagram
// rather than blocking the sender. Only the first inboxChan frames sit
// in the preallocated channel; the rest wait in the inbox's overflow
// queue, which grows only in the inboxes that fill.
const inboxCap = 512

// ChanTransport is the in-process transport: per-node inboxes with
// LinkPolicy shaping. It is the tests/CI transport — no sockets,
// no serialization, frames move by value — and the reference
// implementation of the Transport contract. With a nil (or zero-Flat)
// policy, delivery is immediate and lossless; with a *netmodel.Model
// installed, the same latency storms, loss bursts and partitions the
// simulator's transit phase applies are imposed on the wall clock.
type ChanTransport struct {
	mu      sync.RWMutex
	inboxes map[overlay.NodeID]*inbox
	shape   *shaper
	closed  bool
	land    func(Frame) // t.arrive, bound once (send runs per frame)

	inboxCounters
}

// NewChanTransport returns an empty in-process transport; seed drives
// the shaping draws (loss, jitter).
func NewChanTransport(seed int64) *ChanTransport {
	t := &ChanTransport{
		inboxes: make(map[overlay.NodeID]*inbox),
		shape:   newShaper(seed),
	}
	t.land = t.arrive
	return t
}

// Open attaches a node.
func (t *ChanTransport) Open(id overlay.NodeID) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := newInbox()
	t.inboxes[id] = q
	return &chanEndpoint{t: t, id: id, inbox: q}, nil
}

// SetPolicy installs the delay/loss/partition policy.
func (t *ChanTransport) SetPolicy(p netmodel.LinkPolicy) { t.shape.setPolicy(p) }

// SetTick publishes the scheduling period and time compression.
func (t *ChanTransport) SetTick(tick int, wallPerScenarioMS float64) {
	t.shape.setTick(tick, wallPerScenarioMS)
}

// Stats returns cumulative data-plane counters.
func (t *ChanTransport) Stats() TransportStats { return t.stats() }

// Close shuts the transport down.
func (t *ChanTransport) Close() {
	t.shape.stop()
	t.mu.Lock()
	t.closed = true
	t.inboxes = make(map[overlay.NodeID]*inbox)
	t.mu.Unlock()
}

// send routes one frame through the shaper into the destination inbox.
func (t *ChanTransport) send(f Frame) {
	if f.Kind == FrameData {
		t.dataSent.Add(1)
	}
	delivered := t.shape.route(f, t.land, t.land)
	if !delivered && f.Kind == FrameData {
		t.dataLost.Add(1) // severed at injection
	}
}

// arrive is the shaper's landing hook: the frame goes into the
// destination's inbox.
func (t *ChanTransport) arrive(f Frame) {
	if f.Kind == frameDropped {
		t.dataLost.Add(1)
		return
	}
	// The send happens under the read lock, so once Close (or an
	// endpoint's Close) returns, no frame reaches the detached inbox.
	t.mu.RLock()
	defer t.mu.RUnlock()
	if q, ok := t.inboxes[f.Msg.To]; ok {
		t.deliver(q, f)
	}
	// Otherwise the destination detached (churn): the datagram evaporates.
}

type chanEndpoint struct {
	t     *ChanTransport
	id    overlay.NodeID
	inbox *inbox
}

// Queue delivers at once: a channel send has no per-datagram cost to
// share, so the channel transport holds nothing back.
func (e *chanEndpoint) Queue(f Frame) {
	f.Msg.From = e.id
	e.t.send(f)
}

func (e *chanEndpoint) Flush() {}

func (e *chanEndpoint) Send(f Frame) {
	e.Queue(f)
	e.Flush()
}

func (e *chanEndpoint) Recv() <-chan Frame { return e.inbox.recv() }

func (e *chanEndpoint) queued() int { return e.inbox.queued() }

func (e *chanEndpoint) Close() {
	e.t.mu.Lock()
	if e.t.inboxes[e.id] == e.inbox {
		delete(e.t.inboxes, e.id)
	}
	e.t.mu.Unlock()
}
