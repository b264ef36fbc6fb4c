package cluster

import (
	"cmp"
	"fmt"
	"slices"
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
// source. P is one message of the alphabet (wire.go). Ack must be
// called after the message is applied (a no-op for unsequenced
// messages); an ack carries no payload — an answer travels as a message
// of its own.
type inMsg struct {
	From int // source shard
	Seq  uint64
	P    any
	Ack  func()
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
	shard  int
	sealer *sealer
	table  shardTable
	tr     *runtime.UDPTransport
	addr   string // the transport's socket: this process's address

	// tick is the driving loop's current period, for the retry trace.
	tick atomic.Int64

	// pending keeps sealed frames as the bytes sent, so a retry sends
	// them again without encoding. held keeps out-of-order messages
	// decoded, and acked the highest sequence number per source the
	// application has applied and acked. sendMu serializes sequenced
	// sends, so a sequence number is taken only by a message that
	// sealed.
	sendMu  sync.Mutex
	mu      sync.Mutex
	nextSeq map[int]uint64
	pending map[pendKey][]byte
	inNext  map[int]uint64
	held    map[int]map[uint64]any
	acked   map[int]uint64
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

	// logf reports a message dropped because it cannot be sealed (its
	// payload is past the control frame's bound) — the first of them;
	// sealDrops counts them all.
	logf      func(format string, args ...any)
	sealDrops atomic.Int64

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
// welcome and the start carry. logf (nil: silent) reports the first
// message that cannot be sealed.
func newLink(tr *runtime.UDPTransport, listen string, shard int, token string, logf func(string, ...any)) (*link, error) {
	addr, err := tr.Bind(listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: control bind on %q: %w", listen, err)
	}
	l := &link{
		shard:   shard,
		sealer:  newSealer([]byte(token)),
		tr:      tr,
		addr:    addr,
		nextSeq: make(map[int]uint64),
		pending: make(map[pendKey][]byte),
		inNext:  make(map[int]uint64),
		held:    make(map[int]map[uint64]any),
		acked:   make(map[int]uint64),
		inbox:   make(chan inMsg, 256),
		done:    make(chan struct{}),
		logf:    logf,
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

// forget abandons every reliable send toward a dead shard, so its
// retries stop. The coordinator calls it at failover so a corpse cannot
// pin the retry loop or the drain check.
func (l *link) forget(dest int) {
	l.mu.Lock()
	for k := range l.pending {
		if k.shard == dest {
			delete(l.pending, k)
		}
	}
	l.mu.Unlock()
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
	l.castFrame(dest, f, nil)
}

// lastSeq is the highest sequence number handed to the peer shard —
// the mark a worker's AppliedSeq must reach before the coordinator may
// declare it drained.
func (l *link) lastSeq(dest int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq[dest]
}

// send ships a message on the reliable channel to a peer shard: it is
// retried until acknowledged and delivered in sequence order. The error
// is a message that cannot be sealed: it is reported and dropped without
// taking a sequence number.
func (l *link) send(dest int, m any) error {
	wire, err := l.sealSequenced(dest, m)
	if err != nil {
		return err
	}
	l.transmit(dest, wire)
	return nil
}

// cast ships an unsequenced fire-and-forget message (per-tick status):
// no retry, no ack, losable by design.
func (l *link) cast(dest int, m any) {
	f := runtime.Frame{
		Kind: runtime.FrameEvent,
		Msg:  netmodel.Message{From: l.anchor(), To: overlay.NodeID(dest)},
	}
	l.castFrame(dest, f, m)
}

// castFrame seals and transmits one unsequenced frame. A message that
// cannot be sealed is dropped, as the network would drop it, and
// reported.
func (l *link) castFrame(dest int, f runtime.Frame, m any) {
	wire, err := l.sealer.seal(f, m)
	if err != nil {
		l.dropped(dest, err)
		return
	}
	l.transmit(dest, wire)
}

// dropped accounts one message that could not be sealed, logging the
// first: a shard too large for its status frame would repeat it every
// tick.
func (l *link) dropped(dest int, err error) {
	if l.sealDrops.Add(1) == 1 && l.logf != nil {
		l.logf("cluster: dropped a control message to shard %d (further drops not logged): %v", dest, err)
	}
}

// sendHello knocks on an explicit address: the starter, known from the
// command line — the only address that is ever configured rather than
// learned from the coordinator — or, answering a joiner of another codec
// version, the joiner's hello address.
func (l *link) sendHello(to string, h *Hello) error {
	f := runtime.Frame{
		Kind: runtime.FrameHello,
		// No policy is installed before the welcome (pure pre-run
		// bootstrap).
		Msg: netmodel.Message{From: helloAnchor, To: helloAnchor},
	}
	wire, err := l.sealer.seal(f, h)
	if err != nil {
		return err
	}
	return l.tr.SendControl(wire, to)
}

// anchor is this shard's policy-visible node id (the joiner's shard is
// assigned by the welcome, so it is read under the lock).
func (l *link) anchor() overlay.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return overlay.NodeID(l.shard)
}

// sealSequenced seals the frame under the next sequence number toward
// dest and, once it sealed, takes that number and registers the bytes
// for retry.
func (l *link) sealSequenced(dest int, m any) ([]byte, error) {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	l.mu.Lock()
	seq := l.nextSeq[dest] + 1
	l.mu.Unlock()
	f := runtime.Frame{
		Kind: runtime.FrameEvent,
		Msg: netmodel.Message{
			From: l.anchor(), To: overlay.NodeID(dest),
			Sent: int(seq),
		},
	}
	wire, err := l.sealer.seal(f, m)
	if err != nil {
		l.dropped(dest, err)
		return nil, err
	}
	l.mu.Lock()
	l.nextSeq[dest] = seq
	l.pending[pendKey{dest, seq}] = wire
	l.mu.Unlock()
	return wire, nil
}

// transmit hands one sealed control frame's bytes to the transport
// toward a shard's socket. The transport's shaper applies the run's
// policy; the reliable layer's retries (not the wire) provide delivery.
func (l *link) transmit(dest int, wire []byte) {
	addr, ok := l.table.addr(dest)
	if !ok {
		return // shard not in the table yet: a later retry will find it
	}
	// An address that does not parse loses the frame like the network
	// would.
	_ = l.tr.SendControl(wire, addr)
}

// retryLoop retransmits every unacknowledged sequenced frame until
// acked or closed.
func (l *link) retryLoop() {
	defer l.wg.Done()
	t := time.NewTicker(retryEvery)
	defer t.Stop()
	var due []retry
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
		}
		due = l.retryOnce(due[:0])
	}
}

// retry is one unacknowledged frame: its key and the bytes first sent.
type retry struct {
	key  pendKey
	wire []byte
}

// retryOnce re-sends every pending frame's stored bytes, oldest
// sequence first per destination, collecting them in due (the caller's
// scratch, returned for reuse). Nothing pending costs nothing.
func (l *link) retryOnce(due []retry) []retry {
	l.mu.Lock()
	for k, wire := range l.pending {
		due = append(due, retry{k, wire})
	}
	l.mu.Unlock()
	if len(due) == 0 {
		return due
	}
	slices.SortFunc(due, func(a, b retry) int {
		if c := cmp.Compare(a.key.shard, b.key.shard); c != 0 {
			return c
		}
		return cmp.Compare(a.key.seq, b.key.seq)
	})
	for i, r := range due {
		l.transmit(r.key.shard, r.wire)
		l.obsRetries.Inc()
		l.trace.Emit(obs.TraceEvent{T: obs.EvRetry, Tick: int(l.tick.Load()),
			Dest: r.key.shard, Seq: r.key.seq})
		due[i].wire = nil // the scratch must not pin acked frames
	}
	return due
}

// receive authenticates and dispatches one inbound control frame, its
// bytes as they arrived; the transport's reader calls it, outside the
// transport's lock, and reuses the bytes afterwards. Inbound frames are
// never policy-checked — the sender's shaper already ruled — which is
// what lets a healed coordinator re-reach still-partitioned workers.
func (l *link) receive(wire []byte) {
	f, ok := runtime.OpenControl(wire, l.sealer)
	if !ok {
		return // forged or corrupted: drop silently
	}
	switch f.Kind {
	case runtime.FrameAck:
		l.mu.Lock()
		delete(l.pending, pendKey{int(f.Msg.From), uint64(f.Msg.Seg)})
		l.mu.Unlock()
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
		l.castFrame(int(f.Msg.From), pong, nil)
	case runtime.FramePong:
		l.mu.Lock()
		fn := l.onPong
		l.mu.Unlock()
		if fn != nil {
			fn(int(f.Msg.From))
		}
	}
}

// handleMsg runs the sequenced-delivery state machine (and passes
// hellos and unsequenced events straight through).
func (l *link) handleMsg(f runtime.Frame) {
	m, err := decodeMsg(f.Ctrl)
	if err != nil {
		return
	}
	from := int(f.Msg.From)
	seq := uint64(f.Msg.Sent)
	if f.Kind == runtime.FrameHello || seq == 0 {
		l.deliver(inMsg{From: from, P: m, Ack: func() {}})
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
		// Duplicate of a delivered message: once it is applied, ack it
		// again so the sender stops retrying (the original ack may have
		// been severed on its way out).
		applied := seq <= l.acked[from]
		l.mu.Unlock()
		if applied {
			l.ack(from, seq)
		}
		return
	case seq > next:
		h := l.held[from]
		if h == nil {
			h = make(map[uint64]any)
			l.held[from] = h
		}
		if len(h) < reorderMax {
			h[seq] = m
		}
		l.mu.Unlock()
		return
	}
	// In sequence: deliver, then drain any held successors.
	l.inNext[from] = next + 1
	ready := []any{m}
	for {
		hm, ok := l.held[from][l.inNext[from]]
		if !ok {
			break
		}
		delete(l.held[from], l.inNext[from])
		l.inNext[from]++
		ready = append(ready, hm)
	}
	l.mu.Unlock()
	for i, rm := range ready {
		seq := next + uint64(i)
		if !l.deliver(l.sequencedMsg(from, seq, rm)) {
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
func (l *link) sequencedMsg(from int, seq uint64, m any) inMsg {
	return inMsg{From: from, Seq: seq, P: m, Ack: func() {
		l.mu.Lock()
		l.acked[from] = max(l.acked[from], seq)
		l.mu.Unlock()
		l.ack(from, seq)
	}}
}

// ack seals and sends the bare acknowledgement of one applied message.
// Nothing is kept: a duplicate of the message is acked afresh, which is
// also how an ack lost to a chaos ack-drop window is made good once the
// fault lifts and the sender retries.
func (l *link) ack(from int, seq uint64) {
	if l.dropFrame(runtime.FrameAck) {
		return
	}
	f := runtime.Frame{
		Kind: runtime.FrameAck,
		Msg: netmodel.Message{
			From: l.anchor(), To: overlay.NodeID(from),
			Seg: segment.ID(seq),
		},
	}
	l.castFrame(from, f, nil)
}

// deliver hands one message to the application without ever blocking
// the reader (a blocked reader would stall ack processing). A full
// inbox drops the message: the caller rewinds
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
