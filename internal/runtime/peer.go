package runtime

import (
	"math/rand"
	"slices"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/bitfield"
	"gossipstream/internal/buffer"
	"gossipstream/internal/core"
	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim"
)

// A peer is one live protocol participant: a goroutine owning a buffer,
// budgets, a sim.Playback (the per-node protocol core shared with the
// simulator) and a scheduler instance, exchanging frames with its
// neighbors through a transport Endpoint. Nothing here touches shared
// state — the peer's world is its inbox, its control channel from the
// runner, and the tick signal that paces its scheduling period.
//
// Per period a peer: refills its budgets, generates (source) or plays
// back (listener), advertises its buffer map to every neighbor, and
// plans pull requests with the simulator's own planning step
// (sim.Planner) — against views decoded from real map frames rather than
// same-tick shared memory. Requests are served (or denied) one inbox
// burst at a time, by the simulator's own serving step (sim.Server,
// answerBurst); a denial is retried at another supplier through the
// planner's supplier pick, or drops the request and refunds its inbound
// token to the period that paid it — the live counterpart of the
// simulator's retry rounds.
//
// Outbound frames are queued on the endpoint and flushed at two points:
// the end of a period (a neighbour's map and this period's requests to
// it share a datagram) and the end of a drained inbox burst (all answers
// to one requester share a datagram).

// wireBits is the control cost of one buffer map.
var wireBits = int64(bitfield.WireBits(sim.BufferCap))

// viewTTLPeriods is how many periods a neighbor's buffer-map view stays
// usable without a refresh. Maps arrive every period on a healthy link,
// so a view this stale means the neighbor is gone or the link is
// severed (the live runtime discovers partitions by silence, where the
// simulator's planner consults the partition oracle directly).
const viewTTLPeriods = 3

// denyRetryCap bounds how many suppliers a peer tries for one segment
// within a period (the first request plus retries after denials) — the
// live counterpart of the simulator's bounded retry rounds.
const denyRetryCap = 3

// tickCmd paces one scheduling period.
type tickCmd struct {
	n int // period number
}

// ctrlKind enumerates runner→peer control messages: the in-process
// control plane (spin-up metadata, role changes, membership updates)
// that a multi-host deployment would move onto an authenticated
// control transport.
type ctrlKind uint8

const (
	ctrlBecomeSource ctrlKind = iota + 1
	ctrlStopSource
	ctrlDemote
	ctrlNeighbors
	ctrlBandwidth
	ctrlQuit
)

type ctrlMsg struct {
	kind      ctrlKind
	sessions  []segment.Session // authoritative timeline (become/demote)
	neighbors []overlay.NodeID  // ctrlNeighbors
	anchor    segment.ID        // ctrlDemote rejoin anchor
	factor    float64           // ctrlBandwidth
	reply     chan segment.ID   // ctrlStopSource: the closed session's end id
}

// report is one peer's per-period account to the runner, which folds it
// into the measurement window and LiveStats (Runner.observe).
type report struct {
	id       overlay.NodeID
	period   int
	alive    bool
	isSource bool

	played, stalled   int
	mapBits, dataBits int64
	maxSeen           segment.ID
	windowLo          segment.ID

	// Session indices, -1 for none: started and finished this period, and
	// prepared (sim.Playback.PreparedSession).
	started, finished, prepared int

	dupes, denies int // LiveStats.Dupes and Denies
	reReqs        int // granted loss-induced re-requests (supplier side)
}

// neighborView is the last decoded advertisement from one neighbor.
type neighborView struct {
	m       *buffer.Map
	maxSeen segment.ID
	rate    float64
	period  int
}

type peer struct {
	id  overlay.NodeID
	par sim.PeerParams
	ep  Endpoint
	rng *rand.Rand

	buf *buffer.Buffer
	pb  sim.Playback

	base, profile bandwidth.Profile
	in, out       *bandwidth.Budget
	bwFactor      float64

	alive     bool
	startTick int
	tick      int

	isSource  bool // holds (or held) the source role
	mySession int  // timeline index of the session this peer sources, -1
	nextGen   segment.ID

	sessions  []segment.Session
	neighbors []overlay.NodeID
	views     map[overlay.NodeID]*neighborView

	// ledger records this peer's requests. One that times out is lost,
	// and the next request of its segment carries the wire-level
	// re-request bit, the live counterpart of the simulator's
	// NetReRequests. reqPer counts this period's requests per supplier,
	// the per-link capacity estimate.
	ledger sim.Ledger
	reqPer map[overlay.NodeID]int
	// Per-period grant counts per requester (the per-link serve cap),
	// zeroed at refill; the counters outlive the period so the server can
	// hold them by pointer.
	grantsOut map[overlay.NodeID]*int32
	// pending is the current inbox burst's pull requests, answered
	// together at its end by server; reReq marks those that carried the
	// wire re-request bit.
	pending []sim.Request
	reReq   []bool
	server  sim.Server

	// Period accumulators, flushed into the report.
	mapBits, dataBits           int64
	played, stalled             int
	started, finished, prepared int
	dupes, denies               int
	reReqs                      int

	// The planning step and its scratch, reused across periods: rows are
	// the neighbors with a fresh view.
	planner sim.Planner
	rows    []sim.Row
	// mapSnap is the reusable advertisement snapshot (SnapshotInto
	// refills it each period; the encoded image, not the map, crosses
	// the transport).
	mapSnap *buffer.Map
	gossip  []SessionInfo // see sessionGossip

	tickCh  chan tickCmd
	ctrlCh  chan ctrlMsg
	reports chan<- report
}

// spawnSpec is everything the runner passes to build one peer.
type spawnSpec struct {
	id         overlay.NodeID
	profile    bandwidth.Profile
	bwFactor   float64
	startTick  int
	neighbors  []overlay.NodeID
	sessions   []segment.Session
	anchor     segment.ID
	sessionIdx int
	known      int
	isSource   bool
	mySession  int
	nextGen    segment.ID
	seed       int64
}

func newPeer(spec spawnSpec, par sim.PeerParams, algo core.Algorithm, ep Endpoint, reports chan<- report) *peer {
	p := &peer{
		id:        spec.id,
		par:       par,
		ep:        ep,
		rng:       rand.New(rand.NewSource(spec.seed)),
		planner:   sim.NewPlanner(algo, par),
		server:    sim.NewServer(par),
		buf:       buffer.New(sim.BufferCap),
		pb:        sim.NewPlayback(spec.anchor, spec.sessionIdx, spec.known),
		base:      spec.profile,
		profile:   spec.profile,
		bwFactor:  spec.bwFactor,
		alive:     spec.startTick == 0,
		startTick: spec.startTick,
		isSource:  spec.isSource,
		mySession: spec.mySession,
		nextGen:   spec.nextGen,
		sessions:  append([]segment.Session(nil), spec.sessions...),
		neighbors: append([]overlay.NodeID(nil), spec.neighbors...),
		views:     make(map[overlay.NodeID]*neighborView),
		reqPer:    make(map[overlay.NodeID]int),
		grantsOut: make(map[overlay.NodeID]*int32),
		started:   -1,
		finished:  -1,
		prepared:  -1,
		tickCh:    make(chan tickCmd, 1),
		ctrlCh:    make(chan ctrlMsg, 8),
		reports:   reports,
	}
	if !spec.isSource {
		p.profile = bandwidth.Profile{In: spec.profile.In * spec.bwFactor, Out: spec.profile.Out * spec.bwFactor}
	} else {
		p.profile = bandwidth.SourceProfile()
		p.pb.Known = len(p.sessions)
	}
	p.in = bandwidth.NewBudget(p.profile.In)
	p.out = bandwidth.NewBudget(p.profile.Out)
	return p
}

// run is the peer goroutine: frames and control between ticks, the
// period step on each tick. It exits only on ctrlQuit.
func (p *peer) run() {
	for {
		select {
		case c := <-p.ctrlCh:
			if !p.handleCtrl(c) {
				return
			}
		case f := <-p.ep.Recv():
			p.burst(f)
		case t := <-p.tickCh:
			// Drain the inbox before the period: everything that reached
			// this node by the period boundary is visible to playback and
			// planning, however the host happened to schedule the
			// goroutines (the live analog of the simulator's
			// store-and-forward rule). Answers queued here leave with the
			// period's own flush.
			if !p.drain() {
				return
			}
			p.period(t.n)
		}
	}
}

// burst handles f and every frame already waiting behind it, answers the
// requests among them, then flushes the answers.
func (p *peer) burst(f Frame) {
	for {
		p.handleFrame(f)
		select {
		case f = <-p.ep.Recv():
		default:
			p.answerBurst()
			p.ep.Flush()
			return
		}
	}
}

// drain empties the control and frame queues and answers the requests
// among the frames; false means a quit arrived mid-drain.
func (p *peer) drain() bool {
	for {
		select {
		case c := <-p.ctrlCh:
			if !p.handleCtrl(c) {
				return false
			}
		case f := <-p.ep.Recv():
			p.handleFrame(f)
		default:
			p.answerBurst()
			return true
		}
	}
}

// period runs one scheduling step and files the period report.
func (p *peer) period(tick int) {
	p.tick = tick
	if !p.alive && !p.isSource && tick >= p.startTick {
		p.alive = true // staggered arrival
	}
	if p.alive {
		p.refill()
		p.generate()
		p.playback()
		p.advertise()
		p.schedule()
	}
	p.ep.Flush()
	p.reports <- p.makeReport(tick)
}

// refill resets the per-period budgets and request bookkeeping.
func (p *peer) refill() {
	p.in.Refill(sim.Tau)
	p.out.Refill(sim.Tau)
	for _, n := range p.grantsOut {
		*n = 0
	}
	clear(p.reqPer)
	// A request unanswered since before the previous period is lost and
	// its segment requestable again: the live counterpart of the
	// simulator's landing at delivery.
	p.ledger.Expire(p.tick)
}

// generate emits this period's fresh segments when this peer is the
// streaming source of the open session.
func (p *peer) generate() {
	if !p.isSource || p.mySession < 0 || p.mySession >= len(p.sessions) || !p.sessions[p.mySession].Open() {
		return
	}
	for range sim.PerTick {
		p.buf.Insert(p.nextGen)
		p.nextGen++
	}
}

// playback advances the shared playback state machine by one period and
// tests the prepare-S2 condition, at period boundaries exactly like the
// simulator's playback phase.
func (p *peer) playback() {
	if p.isSource {
		return
	}
	st := p.pb.Advance(p.buf, p.sessions, p.par.Qs)
	p.played += st.Played
	p.stalled += st.Stalled
	if st.Started >= 0 {
		p.started = st.Started
	}
	if st.Finished >= 0 {
		p.finished = st.Finished
	}
	p.prepared = p.pb.PreparedSession(p.buf, p.sessions, p.par.Qs)
}

// advertise sends this period's buffer map to every neighbor.
func (p *peer) advertise() {
	if len(p.neighbors) == 0 {
		return
	}
	// Advertise the freshest capacity window: a promoted ex-listener's
	// buffer spans old playback holdings AND the live edge it generates
	// at — anchoring at MinID would clip the very segments only it has.
	anchor := p.buf.MinID()
	if anchor < 0 {
		anchor = 0
	}
	maxSeen := p.buf.MaxSeen()
	if lo := maxSeen - segment.ID(sim.BufferCap) + 1; lo > anchor {
		anchor = lo
	}
	p.mapSnap = p.buf.SnapshotInto(p.mapSnap, anchor)
	// A fresh image each period: the channel transport hands it to every
	// neighbour's inbox by reference, so it must outlive this call.
	img, err := p.mapSnap.Encode()
	if err != nil {
		img = nil
	}
	sessions := p.sessionGossip()
	rate := sim.LinkRate(p.out.Rate(), p.par.Shared)
	for _, v := range p.neighbors {
		p.ep.Queue(Frame{
			Kind:     FrameMap,
			Msg:      netmodel.Message{To: v, Sent: p.tick},
			MapImg:   img,
			MaxSeen:  maxSeen,
			Rate:     rate,
			Sessions: sessions,
		})
	}
}

// sessionGossip is the timeline as it rides on map frames. The image is
// rebuilt only when the timeline changed — a handful of times per run,
// not every period — and then replaced, never rewritten: frames already
// sent share it, by reference on the channel transport.
func (p *peer) sessionGossip() []SessionInfo {
	fresh := len(p.gossip) == len(p.sessions)
	for i := 0; fresh && i < len(p.sessions); i++ {
		s, g := p.sessions[i], p.gossip[i]
		fresh = g.Source == overlay.NodeID(s.Source) && g.Begin == s.Begin && g.End == s.End
	}
	if !fresh {
		p.gossip = make([]SessionInfo, len(p.sessions))
		for i, s := range p.sessions {
			p.gossip[i] = SessionInfo{Source: overlay.NodeID(s.Source), Begin: s.Begin, End: s.End}
		}
	}
	return p.gossip
}

// schedule runs the planning step against the decoded neighbor views
// and queues this period's pull requests, within one snapshot of the
// inbound budget.
func (p *peer) schedule() {
	budget := p.in.Available()
	if p.isSource || p.profile.In <= 0 || budget < 1 {
		return
	}
	rows := p.viewRows(nil)
	if !p.planner.Plan(&p.pb, p.buf, p.sessions, p.ledger.InFlight(), p.profile.In, rows) {
		return
	}
	for _, pu := range p.planner.Pulls {
		if budget == 0 {
			return
		}
		p.request(pu.Seg, overlay.NodeID(rows[pu.Row].ID))
		budget--
	}
	p.planner.Prefetch(rows, budget, p.rng)
	for _, pu := range p.planner.Pulls {
		p.request(pu.Seg, overlay.NodeID(rows[pu.Row].ID))
	}
}

// viewRows lists the neighbors whose buffer-map view is fresh, minus
// skip, as planning rows. In the per-link substrate a row's headroom is
// what is left of the supplier's link capacity, estimated from its
// advertised rate, after this period's requests to it; the shared
// substrate leaves the supplier to deny.
func (p *peer) viewRows(skip []overlay.NodeID) []sim.Row {
	rows := p.rows[:0]
	for _, v := range p.neighbors {
		view := p.views[v]
		if view == nil || view.period < p.tick-viewTTLPeriods || view.m == nil || slices.Contains(skip, v) {
			continue // never heard from it, the link has gone silent, or it denied
		}
		headroom := sim.Unbounded
		if !p.par.Shared {
			headroom = sim.LinkCap(view.rate) - p.reqPer[v]
		}
		rows = append(rows, sim.Row{
			Supplier: core.Supplier{ID: core.SupplierID(v), Rate: view.rate, View: view.m},
			MaxSeen:  view.maxSeen,
			Headroom: headroom,
		})
	}
	p.rows = rows
	return rows
}

// request spends one inbound token on a pull request, tagging the
// retry of a timed-out (lost) exchange with the wire re-request bit.
func (p *peer) request(seg segment.ID, sup overlay.NodeID) {
	p.in.Take(1)
	p.reqPer[sup]++
	re := p.ledger.Issue(seg, p.tick)
	p.ep.Queue(Frame{Kind: FrameRequest, ReReq: re, Msg: netmodel.Message{To: sup, Seg: seg, Sent: p.tick}})
}

// handleFrame processes one inbound frame.
func (p *peer) handleFrame(f Frame) {
	if !p.alive {
		return
	}
	switch f.Kind {
	case FrameMap:
		p.handleMap(f)
	case FrameRequest:
		p.pending = append(p.pending, sim.Request{From: f.Msg.From, Seg: f.Msg.Seg})
		p.reReq = append(p.reReq, f.ReReq)
	case FrameDeny:
		p.handleDeny(f.Msg.From, f.Msg.Seg)
	case FrameData:
		p.handleData(f.Msg.Seg)
	}
}

// handleMap decodes a neighbor's advertisement into its view's map, in
// place, and merges its session gossip. A rejected image leaves the old
// view as it was.
func (p *peer) handleMap(f Frame) {
	view := p.views[f.Msg.From]
	var old *buffer.Map
	if view != nil {
		old = view.m
	}
	m, err := buffer.DecodeMapInto(old, f.MapImg, sim.BufferCap)
	if err != nil {
		return
	}
	if view == nil {
		view = new(neighborView)
		p.views[f.Msg.From] = view
	}
	view.m, view.maxSeen, view.rate, view.period = m, f.MaxSeen, f.Rate, p.tick
	p.mapBits += wireBits
	p.mergeSessions(f.Sessions)
}

// mergeSessions folds gossiped timeline knowledge into the local copy.
// Sessions are created by one authority (the runner's control plane),
// so lists agree on their common prefix; merging only appends newly
// learned sessions and closes ones the sender has seen end.
func (p *peer) mergeSessions(remote []SessionInfo) {
	for i, rs := range remote {
		if i < len(p.sessions) {
			if p.sessions[i].Open() && rs.End != segment.None {
				p.sessions[i].End = rs.End
			}
			continue
		}
		p.sessions = append(p.sessions, segment.Session{Source: segment.SourceID(rs.Source), Begin: rs.Begin, End: rs.End})
	}
}

// answerBurst answers the burst's pull requests with the serving step the
// simulator runs (sim.Server): a data frame for each grant and a deny
// frame for each refusal, in the order the supplier reached them.
func (p *peer) answerBurst() {
	p.server.Serve(p.pending, p.buf, p.out, p.rng, p)
	for _, a := range p.server.Answers {
		kind := FrameDeny
		if a.Grant {
			kind = FrameData
			if p.reReq[a.At] {
				// A loss-induced re-request re-granted: the counter the
				// simulator's serve phase keeps as NetReRequests.
				p.reReqs++
			}
		}
		r := p.pending[a.At]
		p.ep.Queue(Frame{Kind: kind, Msg: netmodel.Message{To: r.From, Seg: r.Seg, Sent: p.tick}})
	}
	p.pending, p.reReq = p.pending[:0], p.reReq[:0]
}

// Takes is the server's requester question. A live supplier cannot read
// the requester's budget, buffer or pending grants, so it does not know
// and says yes: over-subscription resolves at the requester, which
// retries or refunds a deny and drops duplicate data on arrival.
func (p *peer) Takes(sim.Request, int32) bool { return true }

// LinkGrants is this period's grant counter toward r's requester.
func (p *peer) LinkGrants(r sim.Request) *int32 {
	n := p.grantsOut[r.From]
	if n == nil {
		n = new(int32)
		p.grantsOut[r.From] = n
	}
	return n
}

// handleDeny retries the segment at another supplier that advertises it,
// has not denied it and has request headroom — at most denyRetryCap
// suppliers per period — and otherwise drops the request. A request
// issued this period paid a token of this period's inbound budget: its
// retry reuses the token and its drop refunds it. A late deny, of a
// request issued the period before, meets a budget that never paid for
// it: its retry spends a token of its own, and its drop refunds nothing.
func (p *peer) handleDeny(from overlay.NodeID, seg segment.ID) {
	at, ok := p.ledger.IssuedAt(seg)
	if !ok {
		return // stale deny from a previous period
	}
	p.denies++
	p.ledger.Land(seg)
	late := at < p.tick
	if denied := p.ledger.Deny(seg, from); len(denied) < denyRetryCap {
		rows := p.viewRows(denied)
		if r := p.planner.Pick(rows, seg, p.rng); r >= 0 && (!late || p.in.Take(1)) {
			alt := overlay.NodeID(rows[r].ID)
			p.ledger.Issue(seg, p.tick)
			p.reqPer[alt]++
			p.ep.Queue(Frame{Kind: FrameRequest, Msg: netmodel.Message{To: alt, Seg: seg, Sent: p.tick}})
			return
		}
	}
	if !late {
		p.in.Refund(1)
	}
}

// handleData lands one granted segment.
func (p *peer) handleData(seg segment.ID) {
	p.ledger.Land(seg)
	if p.buf.Has(seg) {
		p.dupes++ // over-subscription resolved here, not at the supplier
		return
	}
	p.buf.Insert(seg)
	p.dataBits += bandwidth.BitsForSegments(1)
}

// handleCtrl applies one control message; false means quit.
func (p *peer) handleCtrl(c ctrlMsg) bool {
	switch c.kind {
	case ctrlBecomeSource:
		p.sessions = append(p.sessions[:0], c.sessions...)
		p.mySession = len(p.sessions) - 1
		p.nextGen = p.sessions[p.mySession].Begin
		p.isSource = true
		p.alive = true
		p.profile = bandwidth.SourceProfile()
		p.in.SetRate(0)
		p.out.SetRate(p.profile.Out)
		p.pb.Active = false
		p.pb.Known = len(p.sessions)
	case ctrlStopSource:
		end := p.nextGen - 1
		if p.mySession >= 0 && p.mySession < len(p.sessions) && p.sessions[p.mySession].Open() {
			p.sessions[p.mySession].End = end
		}
		c.reply <- end
	case ctrlDemote:
		p.isSource = false
		p.mySession = -1
		p.profile = bandwidth.Profile{In: p.base.In * p.bwFactor, Out: p.base.Out * p.bwFactor}
		p.in.SetRate(p.profile.In)
		p.out.SetRate(p.profile.Out)
		p.sessions = append(p.sessions[:0], c.sessions...)
		// Rejoin playback by following the neighbors' current steps.
		p.pb = sim.JoinPlayback(p.sessions, c.anchor)
	case ctrlNeighbors:
		p.neighbors = append(p.neighbors[:0], c.neighbors...)
		for v := range p.views {
			if !slices.Contains(p.neighbors, v) {
				delete(p.views, v)
			}
		}
	case ctrlBandwidth:
		p.bwFactor = c.factor
		if !p.isSource {
			p.profile = bandwidth.Profile{In: p.base.In * c.factor, Out: p.base.Out * c.factor}
			p.in.SetRate(p.profile.In)
			p.out.SetRate(p.profile.Out)
		}
	case ctrlQuit:
		p.ep.Close()
		return false
	}
	return true
}

// makeReport flushes the period accumulators.
func (p *peer) makeReport(tick int) report {
	r := report{
		id:       p.id,
		period:   tick,
		alive:    p.alive,
		isSource: p.isSource,
		played:   p.played,
		stalled:  p.stalled,
		mapBits:  p.mapBits,
		dataBits: p.dataBits,
		maxSeen:  p.buf.MaxSeen(),
		windowLo: p.pb.WindowLo(),
		started:  p.started,
		finished: p.finished,
		prepared: p.prepared,
		dupes:    p.dupes,
		denies:   p.denies,
		reReqs:   p.reReqs,
	}
	p.played, p.stalled = 0, 0
	p.mapBits, p.dataBits = 0, 0
	p.started, p.finished, p.prepared = -1, -1, -1
	p.dupes, p.denies = 0, 0
	p.reReqs = 0
	return r
}
