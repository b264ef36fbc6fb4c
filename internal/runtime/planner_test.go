package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/buffer"
	"gossipstream/internal/core"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim"
)

// refPeer carries the live planner as it was before the peer drove the
// shared planning step (sim.Planner): plan_, prefetch, pickSupplier and
// linkCapFor below are kept verbatim as the reference, on a wrapper that
// holds the scratch fields the peer no longer has. The new driver must
// queue the same requests to the same suppliers and leave the peer's
// generator at the same position.
type refPeer struct {
	*peer
	pb refPlayback

	algo    core.Algorithm
	env     core.Env
	plan    core.Plan
	granted []segment.ID
	needOld []segment.ID
	needNew []segment.ID
	pool    []segment.ID
	supOf   []overlay.NodeID
}

// refPlayback gives the reference the two-slice NeedWindows it called.
type refPlayback struct{ *sim.Playback }

func (pb refPlayback) NeedWindows(buf *buffer.Buffer, sessions []segment.Session, maxAdvert segment.ID, bufferCap, qs int, granted []segment.ID, needOld, needNew []segment.ID) ([]segment.ID, []segment.ID) {
	dst, split := pb.NeedWindowsInto(buf, sessions, maxAdvert, bufferCap, qs, granted, needOld[:0])
	needNew = append(needNew[:0], dst[split:]...)
	return dst[:split:split], needNew
}

// linkCapFor estimates a supplier's per-link per-period grant capacity
// from its advertised rate.
func (p *refPeer) linkCapFor(rate float64) int {
	c := int(rate*sim.Tau + 1e-9)
	if c < 1 {
		c = 1
	}
	return c
}

// plan_ runs the scheduler against the decoded neighbor views and
// issues this period's pull requests. (Named with a trailing underscore
// only to dodge the plan scratch field.)
func (p *refPeer) plan_() {
	if p.isSource || p.profile.In <= 0 || p.in.Available() < 1 {
		return
	}
	// Assigned field by field: Env also carries BuildCandidates' reused
	// availability scratch, which a struct literal would drop.
	p.env.Tau = sim.Tau
	p.env.P = bandwidth.PlayRate
	p.env.Q = sim.Q
	p.env.Inbound = p.profile.In
	p.env.Playhead = p.pb.WindowLo()
	supIDs := p.env.Suppliers[:0]
	maxAdvert := segment.None
	supOf := p.supOf[:0]
	for _, v := range p.neighbors {
		view, ok := p.views[v]
		if !ok || view.period < p.tick-viewTTLPeriods || view.m == nil {
			continue // never heard from it, or the link has gone silent
		}
		if len(supIDs) == core.MaxSuppliers {
			break
		}
		if view.maxSeen > maxAdvert {
			maxAdvert = view.maxSeen
		}
		supIDs = append(supIDs, core.Supplier{ID: core.SupplierID(v), Rate: view.rate, View: view.m})
		supOf = append(supOf, v)
	}
	p.env.Suppliers, p.supOf = supIDs, supOf
	if maxAdvert == segment.None {
		return
	}

	// The shared per-node protocol core: session discovery and the two
	// undelivered request windows, with in-flight requests excluded.
	p.pb.Discover(p.sessions, maxAdvert)
	p.granted = p.granted[:0]
	p.granted = append(p.granted, p.ledger.InFlight()...)
	p.needOld, p.needNew = p.pb.NeedWindows(p.buf, p.sessions, maxAdvert,
		sim.BufferCap, p.par.Qs, p.granted, p.needOld, p.needNew)
	if len(p.needOld) == 0 && len(p.needNew) == 0 {
		return
	}
	p.env.NeedOld, p.env.NeedNew = p.needOld, p.needNew

	p.algo.Plan(&p.env, &p.plan)
	for _, req := range p.plan.Requests {
		if p.in.Available() < 1 {
			break
		}
		if p.ledger.Has(req.Segment) {
			continue
		}
		p.request(req.Segment, overlay.NodeID(req.Supplier))
	}
	if !p.par.DisablePrefetch {
		p.prefetch(supOf)
	}
}

// prefetch spends leftover inbound budget on uniformly random missing
// segments of the current stream — the data-driven-mesh substrate
// behavior, identical in role to the simulator's prefetch (random
// useful-piece selection keeps neighborhood holdings diverse). A pool
// no supplier can serve is not shuffled: the shared planner draws
// nothing then, because each simulated node prefetches on a stream of
// its own and a no-hit shuffle's draws feed nothing.
func (p *refPeer) prefetch(sups []overlay.NodeID) {
	budget := p.in.Available()
	if budget <= 0 {
		return
	}
	if !slices.ContainsFunc(p.needOld, func(id segment.ID) bool { return !p.ledger.Has(id) && p.canServe(sups, id) }) {
		return
	}
	pool := append(p.pool[:0], p.needOld...)
	p.pool = pool
	for k := 0; k < len(pool) && budget > 0; k++ {
		j := k + p.rng.Intn(len(pool)-k)
		pool[k], pool[j] = pool[j], pool[k]
		id := pool[k]
		if p.ledger.Has(id) {
			continue
		}
		sup := p.pickSupplier(sups, id)
		if sup < 0 {
			continue
		}
		p.request(id, sup)
		budget--
	}
}

// pickSupplier chooses a uniformly random supplier advertising the
// segment with per-link request headroom; -1 if none.
func (p *refPeer) pickSupplier(sups []overlay.NodeID, id segment.ID) overlay.NodeID {
	best := overlay.NodeID(-1)
	count := 0
	for _, v := range sups {
		view := p.views[v]
		if view == nil || view.m == nil || !view.m.Has(id) {
			continue
		}
		if !p.par.Shared && p.reqPer[v] >= p.linkCapFor(view.rate) {
			continue
		}
		count++
		if p.rng.Intn(count) == 0 {
			best = v
		}
	}
	return best
}

// canServe reports whether pickSupplier would find a supplier for the
// segment, without drawing.
func (p *refPeer) canServe(sups []overlay.NodeID, id segment.ID) bool {
	return slices.ContainsFunc(sups, func(v overlay.NodeID) bool {
		view := p.views[v]
		return view != nil && view.m != nil && view.m.Has(id) &&
			(p.par.Shared || p.reqPer[v] < p.linkCapFor(view.rate))
	})
}

// recEndpoint records the frames a peer queues: kind, destination,
// segment and re-request bit, the whole of a request frame.
type recEndpoint struct{ frames []sentFrame }

type sentFrame struct {
	Kind  FrameKind
	To    overlay.NodeID
	Seg   segment.ID
	ReReq bool
}

func (e *recEndpoint) Queue(f Frame) {
	e.frames = append(e.frames, sentFrame{f.Kind, f.Msg.To, f.Msg.Seg, f.ReReq})
}
func (e *recEndpoint) Flush()             {}
func (e *recEndpoint) Send(f Frame)       { e.Queue(f) }
func (e *recEndpoint) Recv() <-chan Frame { return nil }
func (e *recEndpoint) Close()             {}

func testPeerParams(shared, noPrefetch bool) sim.PeerParams {
	return sim.PeerParams{Qs: 50, Shared: shared, DisablePrefetch: noPrefetch}
}

// syntheticPeer builds a listener mid-stream from a seed alone, so two
// calls with one seed give two identical peers: a random holding, random
// in-flight and timed-out sets, and up to 40 neighbors whose views are
// fresh, stale or missing, each advertising a random buffer. Half the
// seeds place a switch in sight (S1 closed, S2 begun).
func syntheticPeer(seed int64, par sim.PeerParams, algo core.Algorithm, ep Endpoint) *peer {
	rng := rand.New(rand.NewSource(seed))
	const tick = 50
	s1End := segment.None
	sessions := []segment.Session{{Source: 0, Begin: 0, End: segment.None}}
	live := segment.ID(400 + rng.Intn(200))
	if rng.Intn(2) == 0 {
		s1End = live - segment.ID(rng.Intn(60))
		sessions[0].End = s1End
		sessions = append(sessions, segment.Session{Source: 1, Begin: s1End + 1, End: segment.None})
	}
	playhead := live - segment.ID(100+rng.Intn(200))
	p := newPeer(spawnSpec{
		id: 0, profile: bandwidth.Profile{In: float64(10 + rng.Intn(50)), Out: 15},
		bwFactor: 1, sessions: sessions, anchor: playhead, known: 1, mySession: -1,
		seed: rng.Int63(),
	}, par, algo, ep, nil)
	p.tick = tick
	p.pb.Active = rng.Intn(4) != 0
	hold := func(buf *buffer.Buffer, density float64) {
		for id := playhead - 50; id <= live; id++ {
			if rng.Float64() < density {
				buf.Insert(id)
			}
		}
	}
	hold(p.buf, rng.Float64()*0.8)
	for id := playhead; id <= live; id++ {
		switch rng.Intn(20) {
		case 0:
			p.ledger.Issue(id, tick-rng.Intn(2))
		case 1:
			p.ledger.Lose(id, tick-1)
		}
	}
	p.in.Refill(sim.Tau)
	if rng.Intn(4) == 0 {
		p.in.Take(rng.Intn(p.in.Available() + 1))
	}
	for v, n := 1, 1+rng.Intn(40); v <= n; v++ {
		id := overlay.NodeID(v)
		p.neighbors = append(p.neighbors, id)
		if rng.Intn(8) == 0 {
			continue // never heard from it
		}
		nb := buffer.New(sim.BufferCap)
		hold(nb, rng.Float64())
		period := tick - rng.Intn(2)
		if rng.Intn(8) == 0 {
			period = tick - viewTTLPeriods - 1 // silent too long
		}
		// A link slower than a segment per period takes no planned
		// request but one prefetch: the only per-link prefetch a plan that
		// saturates every other link leaves room for.
		rate := float64(1 + rng.Intn(20))
		if rng.Intn(3) == 0 {
			rate = 0.5
		}
		anchor := max(0, nb.MinID())
		p.views[id] = &neighborView{
			m:       nb.SnapshotFrom(anchor),
			maxSeen: nb.MaxSeen(),
			rate:    rate,
			period:  period,
		}
	}
	return p
}

// TestLivePlannerMatchesReference replays randomized peers through the
// new driver (peer.schedule on sim.Planner) and through the reference
// planner above, in both capacity modes, with and without prefetch and
// under both switch algorithms: the queued requests must be equal frame
// for frame and the peers' generators must end in step. Neighbor counts
// stay below core.MaxSuppliers, where the old prefetch stopped at the
// planner's first 64 rows and the shared one reads every row; the deny
// retry path is pinned separately (TestDenyRetryRespectsLinkCap).
func TestLivePlannerMatchesReference(t *testing.T) {
	algos := map[string]sim.AlgorithmFactory{"fast": sim.Fast, "normal": sim.Normal}
	for _, shared := range []bool{true, false} {
		for _, noPrefetch := range []bool{false, true} {
			for name, factory := range algos {
				par := testPeerParams(shared, noPrefetch)
				t.Run(fmt.Sprintf("shared=%v/prefetch=%v/%s", shared, !noPrefetch, name), func(t *testing.T) {
					requests, prefetched := 0, 0
					for seed := int64(1); seed <= 300; seed++ {
						var got, want recEndpoint
						p := syntheticPeer(seed, par, factory(), &got)
						ref := syntheticPeer(seed, par, nil, &want)
						r := &refPeer{peer: ref, pb: refPlayback{&ref.pb}, algo: factory()}
						p.schedule()
						r.plan_()
						if !slices.Equal(got.frames, want.frames) {
							t.Fatalf("seed %d: queued %d requests, reference %d:\n got %v\nwant %v",
								seed, len(got.frames), len(want.frames), got.frames, want.frames)
						}
						if a, b := p.rng.Int63(), ref.rng.Int63(); a != b {
							t.Fatalf("seed %d: the generators left the planners out of step", seed)
						}
						if p.in.Available() != ref.in.Available() {
							t.Fatalf("seed %d: inbound left %d, reference %d", seed, p.in.Available(), ref.in.Available())
						}
						requests += len(got.frames)
						for _, f := range got.frames {
							if !slices.ContainsFunc(r.plan.Requests, func(q core.Request) bool { return q.Segment == f.Seg }) {
								prefetched++ // not among the scheduler's requests
							}
						}
					}
					t.Logf("%d requests compared, %d of them prefetched", requests, prefetched)
					if requests == 0 || (prefetched == 0) != noPrefetch {
						t.Fatal("the comparison is vacuous: no planned or no prefetched requests")
					}
				})
			}
		}
	}
}

// TestServeDistinctFirst pins the live supplier to the simulator's
// shared-outbound service rule: within one burst, each distinct segment
// is granted once before leftover capacity goes to duplicates, whatever
// order the requests arrived and the shuffle put them in.
func TestServeDistinctFirst(t *testing.T) {
	for _, tc := range []struct {
		out       float64
		wantDupes int // duplicate grants of the contended segment
	}{
		{out: 3, wantDupes: 0}, // capacity for the distinct segments only
		{out: 5, wantDupes: 2}, // leftover capacity serves duplicates
	} {
		for seed := int64(1); seed <= 20; seed++ {
			var ep recEndpoint
			p := newPeer(spawnSpec{
				id: 0, profile: bandwidth.Profile{In: 10, Out: tc.out}, bwFactor: 1,
				sessions: []segment.Session{{Begin: 0, End: segment.None}}, known: 1, mySession: -1, seed: seed,
			}, testPeerParams(true, false), sim.Fast(), &ep, nil)
			p.out.Refill(1)
			for seg := segment.ID(1); seg <= 3; seg++ {
				p.buf.Insert(seg)
			}
			// Four requesters contend for segment 1 and arrive first; one
			// each asks for segments 2 and 3.
			for from, seg := range []segment.ID{1, 1, 1, 1, 2, 3} {
				p.pending = append(p.pending, sim.Request{From: overlay.NodeID(from + 1), Seg: seg})
				p.reReq = append(p.reReq, false)
			}
			p.answerBurst()
			granted := map[segment.ID]int{}
			for _, f := range ep.frames {
				if f.Kind == FrameData {
					granted[f.Seg]++
				}
			}
			if len(ep.frames) != 6 || granted[2] != 1 || granted[3] != 1 || granted[1] != 1+tc.wantDupes {
				t.Fatalf("out=%v seed %d: grants per segment %v over %d answers, want 1 each plus %d duplicates of segment 1",
					tc.out, seed, granted, len(ep.frames), tc.wantDupes)
			}
			if len(p.pending) != 0 {
				t.Fatalf("out=%v seed %d: %d requests left pending", tc.out, seed, len(p.pending))
			}
		}
	}
}

// TestDenyRetryRespectsLinkCap pins the deny retry to the per-link
// request headroom the planner enforces: in the per-link substrate a
// denied segment is re-requested only over a link below its capacity
// estimate, and when no such alternate exists the request is dropped and
// its inbound token refunded.
func TestDenyRetryRespectsLinkCap(t *testing.T) {
	for _, altAtCap := range []bool{true, false} {
		var ep recEndpoint
		p := newPeer(spawnSpec{
			id: 0, profile: bandwidth.Profile{In: 10, Out: 10}, bwFactor: 1,
			sessions: []segment.Session{{Begin: 0, End: segment.None}}, known: 1, mySession: -1, seed: 3,
		}, testPeerParams(false, false), sim.Fast(), &ep, nil)
		p.tick = 5
		p.in.Refill(1)
		const seg = segment.ID(7)
		nb := buffer.New(600)
		nb.Insert(seg)
		const denier, alt = overlay.NodeID(1), overlay.NodeID(2)
		p.neighbors = []overlay.NodeID{denier, alt}
		for _, v := range p.neighbors {
			p.views[v] = &neighborView{m: nb.SnapshotFrom(0), maxSeen: seg, rate: 2, period: p.tick}
		}
		p.request(seg, denier)
		if altAtCap {
			p.reqPer[alt] = sim.LinkCap(2) // two requests already on the link
		}
		ep.frames = nil
		before := p.in.Available()
		p.handleDeny(denier, seg)
		switch {
		case altAtCap && len(ep.frames) != 0:
			t.Fatalf("alternate at its link cap: queued %v", ep.frames)
		case altAtCap && (p.in.Available() != before+1 || p.ledger.Has(seg)):
			t.Fatalf("alternate at its link cap: inbound %d (was %d), still requested: %v",
				p.in.Available(), before, p.ledger.InFlight())
		case !altAtCap && (len(ep.frames) != 1 || ep.frames[0].To != alt || ep.frames[0].Kind != FrameRequest):
			t.Fatalf("alternate below its link cap: queued %v, want one request to %d", ep.frames, alt)
		}
	}
}

// TestLateDenyPaysFromItsOwnPeriod pins a deny that arrives the period
// after its request was issued: the request paid a token of the previous
// period's budget, so a drop refunds nothing into the refilled one, and
// a retry spends a token of the current budget or is not sent.
func TestLateDenyPaysFromItsOwnPeriod(t *testing.T) {
	for _, tc := range []struct {
		alt, budget bool
		wantFrames  int
		wantSpent   int // tokens of the refilled budget the deny spends
	}{
		{alt: false, budget: true, wantFrames: 0, wantSpent: 0},
		{alt: true, budget: false, wantFrames: 0, wantSpent: 0},
		{alt: true, budget: true, wantFrames: 1, wantSpent: 1},
	} {
		var ep recEndpoint
		p := newPeer(spawnSpec{
			id: 0, profile: bandwidth.Profile{In: 10, Out: 10}, bwFactor: 1,
			sessions: []segment.Session{{Begin: 0, End: segment.None}}, known: 1, mySession: -1, seed: 3,
		}, testPeerParams(false, false), sim.Fast(), &ep, nil)
		const seg = segment.ID(7)
		nb := buffer.New(600)
		nb.Insert(seg)
		const denier, alt = overlay.NodeID(1), overlay.NodeID(2)
		p.neighbors = []overlay.NodeID{denier}
		if tc.alt {
			p.neighbors = append(p.neighbors, alt)
		}
		for _, v := range p.neighbors {
			p.views[v] = &neighborView{m: nb.SnapshotFrom(0), maxSeen: seg, rate: 2, period: 5}
		}
		p.tick = 5
		p.refill()
		p.request(seg, denier)
		p.tick = 6
		p.refill()
		if !tc.budget {
			p.in.Take(p.in.Available())
		}
		refilled := p.in.Available()
		ep.frames = nil
		p.handleDeny(denier, seg)
		if len(ep.frames) != tc.wantFrames || p.in.Available() != refilled-tc.wantSpent {
			t.Errorf("alternate %v, budget %v: queued %v, inbound %d after refill to %d; want %d frames and %d spent",
				tc.alt, tc.budget, ep.frames, p.in.Available(), refilled, tc.wantFrames, tc.wantSpent)
		}
		if at, ok := p.ledger.IssuedAt(seg); ok != (tc.wantFrames == 1) || ok && at != 6 {
			t.Errorf("alternate %v, budget %v: in flight %v since %d", tc.alt, tc.budget, ok, at)
		}
	}
}

// TestHandleMapDecodesInPlace: a neighbour's advertisement lands in the
// map its view already holds, allocating nothing, and an image of the
// wrong length leaves the view as it was.
func TestHandleMapDecodesInPlace(t *testing.T) {
	var ep recEndpoint
	p := newPeer(spawnSpec{
		id: 0, profile: bandwidth.Profile{In: 10, Out: 10}, bwFactor: 1,
		sessions: []segment.Session{{Begin: 0, End: segment.None}}, known: 1, mySession: -1, seed: 3,
	}, testPeerParams(false, false), sim.Fast(), &ep, nil)
	nb := buffer.New(600)
	for seg := segment.ID(100); seg < 400; seg += 2 {
		nb.Insert(seg)
	}
	img, err := nb.SnapshotFrom(100).Encode()
	if err != nil {
		t.Fatal(err)
	}
	f := Frame{Kind: FrameMap, MapImg: img, MaxSeen: 398, Rate: 3}
	f.Msg.From = 1
	p.tick = 4
	p.handleMap(f)
	view := p.views[1]
	m := view.m
	if allocs := testing.AllocsPerRun(100, func() { p.handleMap(f) }); allocs != 0 {
		t.Errorf("a received map allocated %v times", allocs)
	}
	if view.m != m || m.Anchor != 100 || !m.Has(100) || m.Has(101) || !m.Has(398) || m.Count() != 150 {
		t.Fatalf("decoded view: same map %v, anchor %d, count %d", view.m == m, m.Anchor, m.Count())
	}
	bad := f
	bad.MapImg, bad.MaxSeen = img[:len(img)-1], 999
	p.tick = 5
	p.handleMap(bad)
	if view.m != m || view.maxSeen != 398 || view.period != 4 || m.Anchor != 100 || m.Count() != 150 {
		t.Fatalf("a rejected image changed the view: maxSeen %d period %d anchor %d count %d",
			view.maxSeen, view.period, m.Anchor, m.Count())
	}
}
