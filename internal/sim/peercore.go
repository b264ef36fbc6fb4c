package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/buffer"
	"gossipstream/internal/core"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

// This file is the per-node protocol core every gossipstream peer runs
// once per scheduling period, whichever backend drives it:
//
//   - Playback, the playback/session state machine, with session
//     discovery and the two need windows;
//   - Planner, the planning step of Section 4: read the neighbours'
//     availability rows, build both need windows, run the core.Algorithm
//     rate split and priority scheduler (Plan), then spend the leftover
//     inbound on random useful pieces (Prefetch), with one supplier pick
//     (Pick) that deny retries reuse;
//   - Server, the supplier's side of the same step: which requests of
//     its queue it grants under its sending rate R(j), in the randomized,
//     distinct-first order of gossip forwarding;
//   - LinkRate and LinkCap, the per-link rate and capacity formula;
//   - JoinPlayback, the one anchor → session lookup of every (re)joining
//     peer.
//
// Planner and Server are two of the five pieces both backends share,
// beside Ledger (ledger.go, a requester's record of its requests),
// Window (window.go, the measurement window) and Resolver (resolve.go,
// the resolution of scenario events and churn into directives).
//
// Two drivers call it. The simulator's playback, plan and serve phases
// (phase_world.go, phase_plan.go, phase_serve.go) drive it against
// same-tick buffers, and own row filtering (alive, partitions, busy
// suppliers), the shard arenas, request routing and the commit. The live
// runtime (internal/runtime) drives it per peer goroutine against buffer
// maps decoded from real frames, and owns view expiry, deny retries and
// frame queueing. Both record their requests in a Ledger.
//
// Everything here is node-local: no Sim, no engine. The only randomness
// is the generator the driver passes in, drawn in a fixed order (the
// simulator's determinism contract). Measurement is not in here: Advance
// reports which sessions started and finished, PreparedSession tests
// the prepare-S2 condition, and each driver hands both to the one
// measurement window (window.go), which stamps and counts them.

// Playback is one peer's playback and session-discovery state machine
// over the serial session timeline. The zero value is NOT ready to use;
// a fresh peer starts with Known=1 (it knows the first session) and
// Anchor at its playback entry point.
type Playback struct {
	// SessionIdx indexes the timeline session being played or awaited.
	SessionIdx int
	// Known is the number of timeline sessions the peer has discovered
	// (a neighbor advertising a segment at or past a session's begin
	// reveals that session).
	Known int
	// Active reports whether playback is currently consuming segments.
	Active bool
	// Playhead is the next segment playback will consume.
	Playhead segment.ID
	// Anchor is the first segment of the peer's playback: joiners adopt
	// a late anchor ("follow its neighbors' current steps", Section 5.4).
	Anchor segment.ID
}

// NewPlayback returns the state of a peer entering the stream at anchor,
// playing the session with the given timeline index, having discovered
// known sessions.
func NewPlayback(anchor segment.ID, sessionIdx, known int) Playback {
	return Playback{SessionIdx: sessionIdx, Known: known, Playhead: anchor, Anchor: anchor}
}

// JoinPlayback returns the state of a peer (re)joining the stream at
// anchor — a churn or crowd joiner, a respawned peer, a demoted
// ex-source: playing the session that contains anchor and having
// discovered it and every earlier one (the first session when none
// contains anchor).
func JoinPlayback(sessions []segment.Session, anchor segment.ID) Playback {
	for i, s := range sessions {
		if s.Contains(anchor) {
			return NewPlayback(anchor, i, i+1)
		}
	}
	return NewPlayback(anchor, 0, 1)
}

// WindowLo is the lowest segment id the peer still cares about: its
// playhead once playing (or once parked past a finished session), its
// playback anchor before that. It is the lower edge of the request
// window and the reference point q0/Q1 measurements count from.
func (pb *Playback) WindowLo() segment.ID {
	if pb.Active {
		return pb.Playhead
	}
	if pb.Playhead > pb.Anchor {
		// Between sessions: playhead parked past the previous session.
		return pb.Playhead
	}
	return pb.Anchor
}

// Discover advances the known-session count past every session whose
// begin the advertised high-water mark has reached — the paper's
// synchronization mechanism: the new source embeds the previous stream's
// ending id in its first segments, so seeing any S2 segment reveals the
// session boundary. It also clamps SessionIdx into the timeline (a
// defensive bound; the index only runs past the end transiently while a
// successor session is being appended).
func (pb *Playback) Discover(sessions []segment.Session, maxAdvert segment.ID) {
	for pb.Known < len(sessions) && maxAdvert >= sessions[pb.Known].Begin {
		pb.Known++
	}
	if pb.SessionIdx >= len(sessions) {
		pb.SessionIdx = len(sessions) - 1
	}
}

// NeedWindowsInto computes the peer's two undelivered request windows for
// the period: the current stream's window — [WindowLo, maxAdvert],
// clipped to the session end and to one buffer capacity — and, once the
// successor session is discovered, the first qs segments of the new
// stream. Segments already held and segments in the granted in-flight
// set are excluded. Both windows are appended to dst — the old-stream
// window first — and the returned split index separates them
// (needOld = dst[base:split], needNew = dst[split:], where base is
// len(dst) at the call).
func (pb *Playback) NeedWindowsInto(buf *buffer.Buffer, sessions []segment.Session, maxAdvert segment.ID, bufferCap, qs int, granted, dst []segment.ID) ([]segment.ID, int) {
	cur := sessions[pb.SessionIdx]

	lo := pb.WindowLo()
	hi := maxAdvert
	if !cur.Open() && hi > cur.End {
		hi = cur.End
	}
	if winHi := lo + segment.ID(bufferCap) - 1; hi > winHi {
		hi = winHi
	}
	if hi >= lo {
		dst = appendMissing(dst, buf, granted, lo, hi)
	}

	split := len(dst)
	if next := pb.SessionIdx + 1; next < pb.Known {
		ns := sessions[next]
		nhi := ns.Begin + segment.ID(qs) - 1
		if !ns.Open() && nhi > ns.End {
			nhi = ns.End
		}
		dst = appendMissing(dst, buf, granted, ns.Begin, nhi)
	}
	return dst, split
}

// appendMissing appends the ids in [lo, hi] absent from the buffer and
// not in the granted in-flight set to dst, ascending. It walks the
// complement of the buffer's own availability words, a few words at a
// time, after marking the in-flight ids as held — the granted set holds at
// most Inbound·τ entries per period (and is empty at round 0 of classic
// runs), so one pass over it per chunk beats a membership test per id.
func appendMissing(dst []segment.ID, buf *buffer.Buffer, granted []segment.ID, lo, hi segment.ID) []segment.ID {
	var chunk [8]uint64
	for w0, wEnd := int(lo>>6), int(hi>>6); w0 <= wEnd; w0 += len(chunk) {
		held := chunk[:min(len(chunk), wEnd-w0+1)]
		buf.AvailWords(w0, held)
		first := segment.ID(w0) << 6
		for _, g := range granted {
			if off := int(g - first); off >= 0 && off < len(held)<<6 {
				held[off>>6] |= 1 << uint(off&63)
			}
		}
		for i, w := range held {
			base := first + segment.ID(i)<<6
			missing := ^w
			if lo > base {
				missing &= ^uint64(0) << uint(lo-base)
			}
			if hi-base < 63 {
				missing &= ^uint64(0) >> uint(63-(hi-base))
			}
			for ; missing != 0; missing &= missing - 1 {
				dst = append(dst, base+segment.ID(bits.TrailingZeros64(missing)))
			}
		}
	}
	return dst
}

// PlaybackStep reports what one Advance did: what Window.Step stamps
// and counts for a cohort member (the live peer reports it to the runner
// with its period report).
type PlaybackStep struct {
	// Played counts segments consumed this period; Stalled counts
	// playback slots lost to a hole at the playhead while mid-stream.
	Played, Stalled int
	// Started is the timeline index of the session whose playback
	// started this period, -1 otherwise.
	Started int
	// Finished is the timeline index of the session played to its end
	// this period, -1 otherwise.
	Finished int
}

// Advance runs one scheduling period of the playback state machine:
// start (the Q-consecutive rule, or the first-qs rule when entering a
// successor session at its beginning), consume up to PerTick segments,
// stall on a hole, and transition to the next session when the current
// one is played out. qs is the new stream's startup threshold.
func (pb *Playback) Advance(buf *buffer.Buffer, sessions []segment.Session, qs int) PlaybackStep {
	st := PlaybackStep{Started: -1, Finished: -1}
	if pb.SessionIdx >= len(sessions) {
		return st // finished every session that exists
	}
	cur := sessions[pb.SessionIdx]
	if !pb.Active {
		if !pb.tryStart(buf, cur, qs) {
			return st
		}
		st.Started = pb.SessionIdx
	}
	for consumed := 0; consumed < PerTick; consumed++ {
		if !cur.Open() && pb.Playhead > cur.End {
			break
		}
		if !buf.Has(pb.Playhead) {
			// Stall: hole at the playhead. The remaining playback slots
			// of this period are lost (continuity accounting).
			st.Stalled = PerTick - consumed
			return st
		}
		pb.Playhead++
		st.Played++
	}
	if !cur.Open() && pb.Playhead > cur.End {
		st.Finished = pb.SessionIdx
		pb.Active = false
		pb.SessionIdx++
		pb.Anchor = cur.End + 1
		pb.Playhead = pb.Anchor
	}
	return st
}

// tryStart checks the stream start conditions: Q consecutive segments
// from the playback anchor for a peer entering a stream mid-way or at
// its beginning; the first qs segments for a peer starting a successor
// session at its beginning (completed playback of the previous stream
// is implied by SessionIdx having advanced).
func (pb *Playback) tryStart(buf *buffer.Buffer, cur segment.Session, qs int) bool {
	if pb.SessionIdx > 0 && pb.Anchor == cur.Begin {
		// Starting a successor session: need its first qs segments.
		need := qs
		if !cur.Open() && cur.Len() < need {
			need = cur.Len()
		}
		if buf.ConsecutiveFrom(cur.Begin) < need {
			return false
		}
	} else if buf.ConsecutiveFrom(pb.Anchor) < Q {
		return false
	}
	pb.Active = true
	pb.Playhead = pb.Anchor
	return true
}

// PreparedSession is the index of the newest session the peer knows if
// it holds that session's entire startup window, qs consecutive
// segments from its begin — the paper's prepare-S2 condition — and -1
// otherwise or while it knows only the first session.
func (pb *Playback) PreparedSession(buf *buffer.Buffer, sessions []segment.Session, qs int) int {
	k := pb.Known - 1
	if k < 1 || k >= len(sessions) || buf.ConsecutiveFrom(sessions[k].Begin) < qs {
		return -1
	}
	return k
}

// LinkRate is R(j), the sending rate a supplier with outbound rate out
// offers each of its links: its whole outbound, which one budget spreads
// over every link in the shared-capacity substrate, and which each link
// gets in full in the paper's per-link model — Figure 4 annotates each
// neighbour with its full outbound rate o_j, a single per-node value,
// exactly the "sending rate of node j" of Algorithm 1 (the paper never
// differentiates R(j) by requester). A per-link rate is never below one
// segment per period: a live connection always makes some progress.
func LinkRate(out float64, shared bool) float64 {
	if shared {
		return out
	}
	return max(out, 1/Tau)
}

// LinkCap is the whole-segment per-period capacity of a link at rate R(j).
func LinkCap(rate float64) int {
	return max(1, int(rate*Tau+1e-9))
}

// Unbounded is the headroom of a row whose link the driver does not
// meter per link (the shared-capacity substrate).
const Unbounded = math.MaxInt32

// Row is one neighbour as the planning step sees it: the supplier (id,
// rate R(j), availability view), its advertised high-water mark, and how
// many more requests its link may take this round. A row without
// headroom is busy: it neither supplies the plan nor takes prefetch.
type Row struct {
	core.Supplier
	MaxSeen  segment.ID
	Headroom int
}

// Pull is one request the planning step emits: a segment and the index of
// the row to ask.
type Pull struct {
	Seg segment.ID
	Row int32
}

// PeerParams are what the planning and serving steps take from a run's
// Config, beside the protocol constants: the new stream's startup
// threshold Qs; Shared, which selects the shared-outbound substrate (one
// budget across every link instead of the per-link rate R(j)); and
// DisablePrefetch, which leaves the inbound the plan did not spend
// unused (Config.DisablePrefetch).
type PeerParams struct {
	Qs              int
	Shared          bool
	DisablePrefetch bool
}

// Planner is one peer's planning step and its reusable scratch (one per
// simulator worker, one per live peer). A driver calls Plan, queues the
// planned pulls, then calls Prefetch with what is left of the inbound
// budget and queues those; Prefetch reads the need window and requests
// of that Plan. The per-segment loops make no interface calls and no
// allocations once the scratch has grown.
type Planner struct {
	algo core.Algorithm
	par  PeerParams
	// env and plan are the scheduler's input and output. env also carries
	// BuildCandidates' reused availability scratch, so its fields are
	// assigned one by one, never overwritten with a literal.
	env  core.Env
	plan core.Plan
	// needs backs both need windows, old-stream window first; sup maps
	// env.Suppliers back to row indexes.
	needs []segment.ID
	sup   []int32
	// pool is the prefetch candidate pool. pre lists the rows prefetch
	// may ask, and words holds their availability over the pool's span:
	// the union row first, then one row per entry of pre.
	pool  []segment.ID
	pre   []int32
	words []uint64
	// Pulls is the last Plan's or Prefetch's output.
	Pulls []Pull
}

// NewPlanner returns a planner running algo under par.
func NewPlanner(algo core.Algorithm, par PeerParams) Planner {
	return Planner{algo: algo, par: par}
}

// Plan is the scheduling half of the step. It discovers sessions from
// the highest mark the first core.MaxSuppliers rows advertise, builds
// both need windows without the held and inflight segments, hands the
// scheduler those rows that have headroom as suppliers, and runs it;
// Pulls holds its requests in precedence order, and each spends one
// headroom of its row, so Prefetch sees only the room the plan left. It
// reports false, with no pulls, when nothing is advertised or nothing is
// needed — then the scheduler did not run and Prefetch must not be
// called.
func (pl *Planner) Plan(pb *Playback, buf *buffer.Buffer, sessions []segment.Session, inflight []segment.ID, inbound float64, rows []Row) bool {
	pl.Pulls = pl.Pulls[:0]
	pl.env.Suppliers, pl.sup = pl.env.Suppliers[:0], pl.sup[:0]
	maxAdvert := segment.None
	for k := range rows[:min(len(rows), core.MaxSuppliers)] {
		r := &rows[k]
		maxAdvert = max(maxAdvert, r.MaxSeen)
		if r.Headroom >= 1 {
			pl.env.Suppliers = append(pl.env.Suppliers, r.Supplier)
			pl.sup = append(pl.sup, int32(k))
		}
	}
	if maxAdvert == segment.None {
		return false
	}
	pb.Discover(sessions, maxAdvert)
	needs, split := pb.NeedWindowsInto(buf, sessions, maxAdvert, BufferCap, pl.par.Qs, inflight, pl.needs[:0])
	pl.needs = needs
	if len(needs) == 0 {
		return false
	}
	pl.env.Tau = Tau
	pl.env.P = bandwidth.PlayRate
	pl.env.Q = Q
	pl.env.Inbound = inbound
	pl.env.Playhead = pb.WindowLo()
	pl.env.NeedOld, pl.env.NeedNew = needs[:split:split], needs[split:]
	pl.algo.Plan(&pl.env, &pl.plan)
	for _, req := range pl.plan.Requests {
		row := pl.sup[req.SupplierIndex]
		rows[row].Headroom--
		pl.Pulls = append(pl.Pulls, Pull{Seg: req.Segment, Row: row})
	}
	return true
}

// Prefetch is the leftover half of the step, run after a Plan that
// reported true: it spends up to budget requests on uniformly random
// segments of the current stream's need window that the plan did not
// request, each asked of a uniformly random row that advertises it and
// still has headroom — random useful-piece selection, the substrate of
// every data-driven mesh, which keeps neighbourhood holdings diverse. It
// never touches the next stream: how much inbound a node grants the new
// source before finishing the old one is exactly the decision the
// switch algorithms make. Every row is eligible, not just the
// scheduler's first core.MaxSuppliers, so a hub prefetches from all its
// neighbours. Each pull spends one headroom of its row; Pulls holds them.
//
// The draws come from rng, which the simulator restarts on the node's
// own stream before each plan: one shuffle draw per candidate taken from
// the pool, whether or not anyone holds it, and one reservoir draw per
// eligible row in row order (see pick). When prefetch is disabled, or no
// usable row holds any pool id, Prefetch returns at once and draws
// nothing. It must be called after every Plan that reported true,
// whatever the budget: it is what clears Pulls of the plan's requests.
func (pl *Planner) Prefetch(rows []Row, budget int, rng *rand.Rand) {
	pl.Pulls = pl.Pulls[:0]
	if pl.par.DisablePrefetch || budget <= 0 || len(pl.env.NeedOld) == 0 {
		return
	}
	need := pl.env.NeedOld
	// NeedOld is ascending, so its ends bound the span the rows must cover.
	w0 := int(need[0] >> 6)
	nw := int(need[len(need)-1]>>6) - w0 + 1
	pl.readRows(rows, w0, nw)
	union := pl.words[:nw]
	for _, r := range pl.plan.Requests {
		if off := int(r.Segment) - w0<<6; off >= 0 && off < nw<<6 {
			union[off>>6] &^= 1 << uint(off&63) // already asked for
		}
	}
	if !anyHeld(union, need, w0) {
		return // nothing to take: the shuffle below would pull nothing
	}
	pool := append(pl.pool[:0], need...)
	pl.pool = pool
	// Partial Fisher-Yates: draw random candidates until the budget or
	// the pool is exhausted.
	for k := 0; k < len(pool) && budget > 0; k++ {
		j := k + rng.Intn(len(pool)-k)
		pool[k], pool[j] = pool[j], pool[k]
		off := int(pool[k]) - w0<<6
		wi, bit := off>>6, uint64(1)<<uint(off&63)
		if union[wi]&bit == 0 {
			continue // held by no usable row, or planned
		}
		r := pl.pick(rows, nw, wi, bit, rng)
		if r < 0 {
			continue
		}
		rows[r].Headroom--
		pl.Pulls = append(pl.Pulls, Pull{Seg: pool[k], Row: r})
		budget--
	}
}

// anyHeld reports whether the word row, aligned at word w0, has the bit
// of any id of pool set.
func anyHeld(words []uint64, pool []segment.ID, w0 int) bool {
	for _, id := range pool {
		off := int(id) - w0<<6
		if words[off>>6]&(1<<uint(off&63)) != 0 {
			return true
		}
	}
	return false
}

// Pick chooses a supplier for one segment the way prefetch does: a
// uniformly random row that advertises it and has headroom; -1 if none.
// The live peer re-routes a denied request through it.
func (pl *Planner) Pick(rows []Row, seg segment.ID, rng *rand.Rand) int {
	pl.readRows(rows, int(seg>>6), 1)
	return int(pl.pick(rows, 1, 0, 1<<uint(seg&63), rng))
}

// readRows fills pre with the rows that have headroom, in row order, and
// words with their availability over the words [w0, w0+nw): the union
// row, then one row per entry of pre.
func (pl *Planner) readRows(rows []Row, w0, nw int) {
	pl.pre = pl.pre[:0]
	words := slices.Grow(pl.words[:0], nw)[:nw]
	clear(words)
	for k := range rows {
		if rows[k].Headroom < 1 {
			continue
		}
		pl.pre = append(pl.pre, int32(k))
		words = slices.Grow(words, nw)[:len(words)+nw]
		row := words[len(words)-nw:]
		rows[k].View.AvailWords(w0, row)
		for i, w := range row {
			words[i] |= w
		}
	}
	pl.words = words
}

// pick is the one supplier pick: a reservoir draw over the rows of pre
// that hold the segment (bit of word wi) and still have headroom, one
// reservoir draw per such row in row order. It returns the chosen row's
// index, -1 if none.
func (pl *Planner) pick(rows []Row, nw, wi int, bit uint64, rng *rand.Rand) int32 {
	best, count := int32(-1), 0
	for k, r := range pl.pre {
		if pl.words[(k+1)*nw+wi]&bit == 0 || rows[r].Headroom < 1 {
			continue
		}
		count++
		if rng.Intn(count) == 0 {
			best = r
		}
	}
	return best
}

// Request is one pull request in a supplier's queue. Link is the
// driver's handle of its link: the simulator's slot of the supplier in
// the requester's adjacency list (the live peer keys links by From).
type Request struct {
	From overlay.NodeID
	Seg  segment.ID
	Link int32
}

// Requesters is what a Server asks its driver about a queue's requesters.
type Requesters interface {
	// Takes reports whether r's requester can still take r.Seg after
	// granted grants earlier in this queue. A driver that cannot see the
	// requester answers true, and the requester resolves any
	// over-subscription itself.
	Takes(r Request, granted int32) bool
	// LinkGrants is the period's grant counter of r's link.
	LinkGrants(r Request) *int32
}

// Answer is a Server's verdict on the request at index At of its queue.
type Answer struct {
	At    int32
	Grant bool
}

// Server is one supplier's serving step and its reusable scratch (one
// per simulator worker, one per live peer). A grant needs the segment at
// the supplier, a requester that Takes it, and room: an outbound token
// under a shared budget, a grant under the link's LinkCap otherwise.
//
// In the paper's per-link model a supplier answers each neighbour at its
// own rate R(j), in arrival order. Under a shared budget service order
// decides mesh throughput — a congested supplier answering every queue
// alike leaves same-depth peers identical holdings and nothing to trade
// — so, like gossip's randomized forwarding, it serves the queue in
// random order and grants each distinct segment once before leftover
// capacity goes to duplicates.
type Server struct {
	par PeerParams
	// order is the service order; deferred the duplicate pass.
	order, deferred []int32
	// seen holds the distinct segments granted, granted the grants per
	// requester, both over the current queue.
	seen    segSet
	granted nodeCounter
	// Answers is the last Serve's verdicts, one per request, in the
	// order the supplier reached them.
	Answers []Answer
}

// NewServer returns a server under par.
func NewServer(par PeerParams) Server {
	return Server{par: par}
}

// Serve answers a supplier's queue against its holding buf and outbound
// budget out, leaving one verdict per request in Answers; reqs is not
// reordered. Once the room runs out, the rest of the queue is denied in
// the same pass order. The only draw — part of the simulator's
// determinism contract — is one shuffle from rng under a shared budget
// with a token left at queue start (rng may be nil per link).
func (sv *Server) Serve(reqs []Request, buf *buffer.Buffer, out *bandwidth.Budget, rng *rand.Rand, rq Requesters) {
	sv.Answers = sv.Answers[:0]
	sv.deferred = sv.deferred[:0]
	sv.seen.begin()
	sv.granted.begin()
	order := sv.order[:0]
	for i := range reqs {
		order = append(order, int32(i))
	}
	sv.order = order
	shared := sv.par.Shared
	var linkCap int32
	if !shared {
		linkCap = int32(LinkCap(LinkRate(out.Rate(), false)))
	} else if out.Available() >= 1 {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, i := range order {
		if shared && sv.seen.has(reqs[i].Seg) {
			sv.deferred = append(sv.deferred, i) // a duplicate: pass 2
			continue
		}
		sv.answer(reqs[i], i, buf, out, linkCap, rq)
	}
	for _, i := range sv.deferred {
		sv.answer(reqs[i], i, buf, out, linkCap, rq)
	}
}

// answer decides request i and appends its verdict.
func (sv *Server) answer(r Request, i int32, buf *buffer.Buffer, out *bandwidth.Budget, linkCap int32, rq Requesters) {
	shared := sv.par.Shared
	grant := (!shared || out.Available() >= 1) && buf.Has(r.Seg) && rq.Takes(r, sv.granted.get(r.From))
	if grant {
		if shared {
			out.Take(1)
			sv.seen.add(r.Seg)
		} else if n := rq.LinkGrants(r); *n < linkCap {
			*n++
		} else {
			grant = false // the link's period capacity is spent
		}
	}
	if grant {
		sv.granted.inc(r.From)
	}
	sv.Answers = append(sv.Answers, Answer{At: i, Grant: grant})
}
