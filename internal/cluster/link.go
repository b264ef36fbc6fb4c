package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/obs"
	"gossipstream/internal/overlay"
	"gossipstream/internal/runtime"
	"gossipstream/internal/segment"
)

// Control-plane timing (wall clock; the control plane does not stretch
// with TimeScale — retransmission pace is an implementation property,
// not a scenario property).
const (
	retryEvery = 50 * time.Millisecond
	helloEvery = 200 * time.Millisecond
	reorderMax = 64 // held out-of-order frames per source before dropping
)

// helloAnchor is the policy-visible node id of a hello: the joiner has
// no shard yet, so its anchor lies far outside any scenario's id range.
const helloAnchor overlay.NodeID = 1 << 20

// inMsg is one authenticated control message as the link delivers it:
// decoded, deduplicated and — for sequenced messages — in order per
// source. Ack must be called after the message is applied (nil for
// unsequenced messages); its reply travels in the ack frame back to a
// waiting call.
type inMsg struct {
	From int // source shard
	Seq  uint64
	P    *Payload
	Ack  func(reply *Payload)
}

// link is one process's control endpoint: sealed runtime frames over the
// process's one UDPTransport socket, with a reliable sequenced channel
// per peer shard on top (retry until acked, in-order delivery, duplicate
// suppression) and unsequenced fire-and-forget for per-tick status. The
// transport's reader hands the link every control frame; the link sends
// through the transport's shaper.
//
// A control frame to shard k goes to the shard table's address for k.
// Frames carry From/To as shard anchor node ids (shard k ↔ node id k,
// which shard k owns by the id-mod-shards split), so the run's shared
// LinkPolicy judges control traffic exactly as it judges peer traffic:
// a partition that separates the anchor nodes severs the control plane.
// The shaper polices a process's sends only, so a coordinator that heals
// its own policy first can always re-reach workers whose policies still
// carry the partition; their acks start flowing once the heal directive
// lands.
type link struct {
	shard int
	token []byte
	table shardTable
	tr    *runtime.UDPTransport
	addr  string // the transport's socket: this process's address

	// tick is the driving loop's current period, for the retry trace.
	tick atomic.Int64

	mu      sync.Mutex
	nextSeq map[int]uint64
	pending map[pendKey]runtime.Frame
	waiters map[pendKey]chan []byte
	inNext  map[int]uint64
	held    map[int]map[uint64]runtime.Frame
	replies map[pendKey]runtime.Frame // sealed acks, for dup re-ack
	closed  bool

	// Keepalive: the coordinator probes suspected shards with FramePing;
	// any link answers from the transport's reader goroutine (proving the
	// process alive even when its run loop is wedged), and onPong feeds
	// answers back to the failure detector.
	onPong    func(from int)
	pingNonce int64

	// chaosDrop, when set, vetoes outbound frames of a kind — the
	// fault-injection seam internal/chaos hooks to drop a worker's
	// control acks (see docs/TESTING.md).
	chaosDrop func(kind runtime.FrameKind) bool

	inbox chan inMsg
	done  chan struct{}
	wg    sync.WaitGroup

	// Control-plane telemetry (nil when observability is disabled; both
	// sinks are nil-safe). Retransmissions are the control plane's
	// leading distress signal, so they get a counter and a trace line.
	obsRetries *obs.Counter
	trace      *obs.Trace
}

type pendKey struct {
	shard int
	seq   uint64
}

// newLink binds the process's transport on listen ("" for an ephemeral
// loopback port) and attaches the link as the transport's control
// handler. When the shard is already known (the coordinator), its own
// address opens the shard table. A joiner binds with shard -1, calls
// setShard once the welcome assigns one and installs the tables the
// welcome and the start carry.
func newLink(tr *runtime.UDPTransport, listen string, shard int, token string) (*link, error) {
	addr, err := tr.Bind(listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: control bind on %q: %w", listen, err)
	}
	l := &link{
		shard:   shard,
		token:   []byte(token),
		tr:      tr,
		addr:    addr,
		nextSeq: make(map[int]uint64),
		pending: make(map[pendKey]runtime.Frame),
		waiters: make(map[pendKey]chan []byte),
		inNext:  make(map[int]uint64),
		held:    make(map[int]map[uint64]runtime.Frame),
		replies: make(map[pendKey]runtime.Frame),
		inbox:   make(chan inMsg, 256),
		done:    make(chan struct{}),
	}
	if shard >= 0 {
		l.table.set(shard, addr)
	}
	tr.SetControl(l.receive)
	l.wg.Add(1)
	go l.retryLoop()
	return l, nil
}

// setShard records a joiner's welcome-assigned shard. Must run before
// the welcome is acked (the ack carries the shard's anchor id).
func (l *link) setShard(shard int) {
	l.mu.Lock()
	l.shard = shard
	l.mu.Unlock()
}

// routePeers makes the transport route peer frames by ownership: a node
// not attached here goes to its owner shard's address. Must run before
// the runner opens its first peer.
func (l *link) routePeers(r *runtime.Runner) {
	l.tr.SetAddrBook(peerRoutes{table: &l.table, r: r})
}

// setObs attaches the control plane's telemetry sinks.
func (l *link) setObs(o *obs.Obs) {
	if o == nil {
		return
	}
	l.obsRetries = o.Registry().Counter("gossip_ctrl_retries_total",
		"control-plane retransmissions of unacknowledged sequenced frames")
	l.trace = o.Tracer()
}

// setOnPong installs the keepalive-answer callback (invoked from the
// reader goroutine; the callback must do its own locking).
func (l *link) setOnPong(fn func(from int)) {
	l.mu.Lock()
	l.onPong = fn
	l.mu.Unlock()
}

// setChaosDrop installs the outbound fault-injection veto.
func (l *link) setChaosDrop(fn func(kind runtime.FrameKind) bool) {
	l.mu.Lock()
	l.chaosDrop = fn
	l.mu.Unlock()
}

// dropFrame consults the fault-injection veto for one outbound frame.
func (l *link) dropFrame(kind runtime.FrameKind) bool {
	l.mu.Lock()
	fn := l.chaosDrop
	l.mu.Unlock()
	return fn != nil && fn(kind)
}

// close detaches the link from the transport and stops the retry loop;
// the transport (and its socket) stays with its owner.
func (l *link) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	l.tr.SetControl(nil)
	close(l.done)
	l.wg.Wait()
}

// pendingEmpty reports whether every reliable send toward the shard
// has been acknowledged.
func (l *link) pendingEmpty(dest int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k := range l.pending {
		if k.shard == dest {
			return false
		}
	}
	return true
}

// forget abandons every reliable send toward a dead shard: pending
// retries stop, and blocked callers are released with a nil reply. The
// coordinator calls it at failover so a corpse cannot pin the retry
// loop or the drain check.
func (l *link) forget(dest int) {
	l.mu.Lock()
	var woken []chan []byte
	for k := range l.pending {
		if k.shard == dest {
			delete(l.pending, k)
		}
	}
	for k, ch := range l.waiters {
		if k.shard == dest {
			delete(l.waiters, k)
			woken = append(woken, ch)
		}
	}
	l.mu.Unlock()
	for _, ch := range woken {
		ch <- nil
	}
}

// probe sends one keepalive ping (unsequenced, losable; the detector
// re-probes every tick while suspicion lasts).
func (l *link) probe(dest int) {
	l.mu.Lock()
	l.pingNonce++
	nonce := l.pingNonce
	l.mu.Unlock()
	f := runtime.Frame{
		Kind: runtime.FramePing,
		Msg: netmodel.Message{
			From: l.anchor(), To: overlay.NodeID(dest),
			Seg: segment.ID(nonce),
		},
	}
	seal(&f, l.token)
	l.transmit(dest, f)
}

// lastSeq is the highest sequence number handed to the peer shard —
// the mark a worker's AppliedSeq must reach before the coordinator may
// declare it drained.
func (l *link) lastSeq(dest int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq[dest]
}

// send ships a payload on the reliable channel to a peer shard: it is
// retried until acknowledged and delivered in sequence order. Returns
// the assigned sequence number.
func (l *link) send(dest int, p *Payload) uint64 {
	f, seq := l.sealSequenced(dest, p)
	l.transmit(dest, f)
	return seq
}

// call ships reliably and blocks until the acknowledgement arrives (the
// retry loop keeps transmitting meanwhile), returning the ack's reply
// payload (nil when the ack was bare). The error is only ever the
// timeout — a severed control plane that outlasts the caller's
// patience.
func (l *link) call(dest int, p *Payload, timeout time.Duration) (*Payload, error) {
	f, seq := l.sealSequenced(dest, p)
	ch := make(chan []byte, 1)
	key := pendKey{dest, seq}
	l.mu.Lock()
	l.waiters[key] = ch
	l.mu.Unlock()
	l.transmit(dest, f)
	select {
	case reply := <-ch:
		if len(reply) == 0 {
			return nil, nil
		}
		return decodePayload(reply)
	case <-time.After(timeout):
		l.mu.Lock()
		delete(l.waiters, key)
		l.mu.Unlock()
		return nil, fmt.Errorf("cluster: no ack from shard %d for seq %d within %v", dest, seq, timeout)
	case <-l.done:
		return nil, fmt.Errorf("cluster: link closed")
	}
}

// cast ships an unsequenced fire-and-forget payload (per-tick status):
// no retry, no ack, losable by design.
func (l *link) cast(dest int, p *Payload) {
	f := runtime.Frame{
		Kind: runtime.FrameEvent,
		Msg:  netmodel.Message{From: l.anchor(), To: overlay.NodeID(dest)},
		Ctrl: encodePayload(p),
	}
	seal(&f, l.token)
	l.transmit(dest, f)
}

// sendHello knocks on an explicit address (the starter, known from the
// command line — the only address that is ever configured rather than
// learned from the coordinator).
func (l *link) sendHello(to string, h *Hello) error {
	f := runtime.Frame{
		Kind: runtime.FrameHello,
		// No policy is installed before the welcome (pure pre-run
		// bootstrap).
		Msg:  netmodel.Message{From: helloAnchor, To: helloAnchor},
		Ctrl: encodePayload(&Payload{Kind: "hello", Hello: h}),
	}
	seal(&f, l.token)
	return l.tr.SendControl(f, to)
}

// anchor is this shard's policy-visible node id (the joiner's shard is
// assigned by the welcome, so it is read under the lock).
func (l *link) anchor() overlay.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return overlay.NodeID(l.shard)
}

// sealSequenced assigns the next sequence number toward dest, seals the
// frame and registers it for retry.
func (l *link) sealSequenced(dest int, p *Payload) (runtime.Frame, uint64) {
	l.mu.Lock()
	l.nextSeq[dest]++
	seq := l.nextSeq[dest]
	l.mu.Unlock()
	f := runtime.Frame{
		Kind: runtime.FrameEvent,
		Msg: netmodel.Message{
			From: l.anchor(), To: overlay.NodeID(dest),
			Sent: int(seq),
		},
		Ctrl: encodePayload(p),
	}
	seal(&f, l.token)
	l.mu.Lock()
	l.pending[pendKey{dest, seq}] = f
	l.mu.Unlock()
	return f, seq
}

// transmit hands one sealed control frame to the transport toward a
// shard's socket. The transport's shaper applies the run's policy; the
// reliable layer's retries (not the wire) provide delivery.
func (l *link) transmit(dest int, f runtime.Frame) {
	addr, ok := l.table.addr(dest)
	if !ok {
		return // shard not in the table yet: a later retry will find it
	}
	// An address that does not parse loses the frame like the network
	// would.
	_ = l.tr.SendControl(f, addr)
}

// retryLoop retransmits every unacknowledged sequenced frame, oldest
// sequence first per destination, until acked or closed.
func (l *link) retryLoop() {
	defer l.wg.Done()
	t := time.NewTicker(retryEvery)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
		}
		l.mu.Lock()
		keys := make([]pendKey, 0, len(l.pending))
		for k := range l.pending {
			keys = append(keys, k)
		}
		frames := make([]runtime.Frame, len(keys))
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].shard != keys[j].shard {
				return keys[i].shard < keys[j].shard
			}
			return keys[i].seq < keys[j].seq
		})
		for i, k := range keys {
			frames[i] = l.pending[k]
		}
		l.mu.Unlock()
		for i, k := range keys {
			l.transmit(k.shard, frames[i])
			l.obsRetries.Inc()
			l.trace.Emit(obs.TraceEvent{T: obs.EvRetry, Tick: int(l.tick.Load()),
				Dest: k.shard, Seq: k.seq})
		}
	}
}

// receive authenticates and dispatches one inbound control frame; the
// transport's reader calls it, outside the transport's lock. Inbound
// frames are never policy-checked — the sender's shaper already ruled —
// which is what lets a healed coordinator re-reach still-partitioned
// workers.
func (l *link) receive(f runtime.Frame) {
	if !open(&f, l.token) {
		return // forged or corrupted: drop silently
	}
	switch f.Kind {
	case runtime.FrameAck:
		l.handleAck(f)
	case runtime.FrameHello, runtime.FrameEvent:
		l.handleMsg(f)
	case runtime.FramePing:
		// Answer from the reader itself: liveness of the process, not of
		// its run loop, is what the pong attests.
		pong := runtime.Frame{
			Kind: runtime.FramePong,
			Msg: netmodel.Message{
				From: l.anchor(), To: f.Msg.From, Seg: f.Msg.Seg,
			},
		}
		seal(&pong, l.token)
		l.transmit(int(f.Msg.From), pong)
	case runtime.FramePong:
		l.mu.Lock()
		fn := l.onPong
		l.mu.Unlock()
		if fn != nil {
			fn(int(f.Msg.From))
		}
	}
}

// handleAck completes the pending entry and wakes any caller.
func (l *link) handleAck(f runtime.Frame) {
	key := pendKey{int(f.Msg.From), uint64(f.Msg.Seg)}
	l.mu.Lock()
	_, had := l.pending[key]
	delete(l.pending, key)
	ch := l.waiters[key]
	delete(l.waiters, key)
	l.mu.Unlock()
	if !had || ch == nil {
		return
	}
	ch <- append([]byte(nil), f.Ctrl...)
}

// handleMsg runs the sequenced-delivery state machine (and passes
// hellos and unsequenced events straight through).
func (l *link) handleMsg(f runtime.Frame) {
	p, err := decodePayload(f.Ctrl)
	if err != nil {
		return
	}
	from := int(f.Msg.From)
	seq := uint64(f.Msg.Sent)
	if f.Kind == runtime.FrameHello || seq == 0 {
		l.deliver(inMsg{From: from, P: p})
		return
	}
	l.mu.Lock()
	next := l.inNext[from]
	if next == 0 {
		next = 1
		l.inNext[from] = 1
	}
	switch {
	case seq < next:
		// Duplicate of an applied message: re-send the retained ack so
		// the sender stops retrying (the original ack may have been
		// severed on its way out).
		reply, ok := l.replies[pendKey{from, seq}]
		l.mu.Unlock()
		if ok && !l.dropFrame(runtime.FrameAck) {
			l.transmit(from, reply)
		}
		return
	case seq > next:
		h := l.held[from]
		if h == nil {
			h = make(map[uint64]runtime.Frame)
			l.held[from] = h
		}
		if len(h) < reorderMax {
			h[seq] = f
		}
		l.mu.Unlock()
		return
	}
	// In sequence: deliver, then drain any held successors.
	l.inNext[from] = next + 1
	ready := []runtime.Frame{f}
	for {
		nf, ok := l.held[from][l.inNext[from]]
		if !ok {
			break
		}
		delete(l.held[from], l.inNext[from])
		l.inNext[from]++
		ready = append(ready, nf)
	}
	l.mu.Unlock()
	for i, rf := range ready {
		rp := p
		if i > 0 {
			var err error
			if rp, err = decodePayload(rf.Ctrl); err != nil {
				continue
			}
		}
		seq := uint64(rf.Msg.Sent)
		if !l.deliver(l.sequencedMsg(from, seq, rp)) {
			// Inbox full: rewind so the sender's retry re-enters the
			// sequence window here, and discard the rest of the batch
			// (unacked, so it is retried too).
			l.mu.Lock()
			l.inNext[from] = seq
			l.mu.Unlock()
			return
		}
	}
}

// sequencedMsg builds the delivery with its apply-then-ack closure.
func (l *link) sequencedMsg(from int, seq uint64, p *Payload) inMsg {
	return inMsg{
		From: from,
		Seq:  seq,
		P:    p,
		Ack: func(reply *Payload) {
			af := runtime.Frame{
				Kind: runtime.FrameAck,
				Msg: netmodel.Message{
					From: l.anchor(), To: overlay.NodeID(from),
					Seg: segment.ID(seq),
				},
			}
			if reply != nil {
				af.Ctrl = encodePayload(reply)
			}
			seal(&af, l.token)
			l.mu.Lock()
			l.replies[pendKey{from, seq}] = af
			l.mu.Unlock()
			// The retained reply survives a chaos ack-drop window: once
			// the fault lifts, the sender's retry triggers the dup
			// re-ack path above.
			if !l.dropFrame(runtime.FrameAck) {
				l.transmit(from, af)
			}
		},
	}
}

// deliver hands one message to the application without ever blocking
// the reader (a blocked reader would stall ack processing and deadlock
// a waiting call). A full inbox drops the message: the caller rewinds
// sequenced ones for redelivery; unsequenced ones are losable by
// contract.
func (l *link) deliver(m inMsg) bool {
	select {
	case l.inbox <- m:
		return true
	default:
		return false
	}
}
