package runtime

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/buffer"
	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim"
)

// refBook carries the live peer's request bookkeeping as it was before
// the peer kept it in a sim.Ledger: the requested, deniedBy and timedOut
// maps, refill's expiry loops and the map edits of request, handleDeny
// and handleData, kept verbatim as the reference on a wrapper around a
// peer (handleData without its copy of the buffer's high-water mark). The ledger-driven peer must queue the same frames, refund the
// same tokens and leave its generator at the same position.
type refBook struct {
	*peer
	requested map[segment.ID]int
	deniedBy  map[segment.ID][]overlay.NodeID
	timedOut  map[segment.ID]int
}

func (p *refBook) refill() {
	p.in.Refill(sim.Tau)
	p.out.Refill(sim.Tau)
	for _, n := range p.grantsOut {
		*n = 0
	}
	for k := range p.reqPer {
		delete(p.reqPer, k)
	}
	for k := range p.deniedBy {
		delete(p.deniedBy, k)
	}
	for seg, at := range p.requested {
		if at < p.tick-1 {
			delete(p.requested, seg)
			p.timedOut[seg] = p.tick
		}
	}
	for seg, at := range p.timedOut {
		if at < p.tick-8 {
			delete(p.timedOut, seg) // long-gone: playback moved past it
		}
	}
}

func (p *refBook) request(seg segment.ID, sup overlay.NodeID) {
	p.in.Take(1)
	p.requested[seg] = p.tick
	p.reqPer[sup]++
	_, re := p.timedOut[seg]
	if re {
		delete(p.timedOut, seg)
	}
	p.ep.Queue(Frame{Kind: FrameRequest, ReReq: re, Msg: netmodel.Message{To: sup, Seg: seg, Sent: p.tick}})
}

func (p *refBook) handleDeny(from overlay.NodeID, seg segment.ID) {
	if _, ok := p.requested[seg]; !ok {
		return // stale deny from a previous period
	}
	p.denies++
	denied := append(p.deniedBy[seg], from)
	p.deniedBy[seg] = denied
	if len(denied) < denyRetryCap {
		rows := p.viewRows(denied)
		if r := p.planner.Pick(rows, seg, p.rng); r >= 0 {
			alt := overlay.NodeID(rows[r].ID)
			p.requested[seg] = p.tick
			p.reqPer[alt]++
			p.ep.Queue(Frame{Kind: FrameRequest, Msg: netmodel.Message{To: alt, Seg: seg, Sent: p.tick}})
			return
		}
	}
	delete(p.requested, seg)
	p.in.Refund(1)
}

func (p *refBook) handleData(seg segment.ID) {
	delete(p.requested, seg)
	if p.buf.Has(seg) {
		p.dupes++ // over-subscription resolved here, not at the supplier
		return
	}
	p.buf.Insert(seg)
	p.dataBits += bandwidth.BitsForSegments(1)
}

// ledgerPeer builds, from a seed alone, a listener with up to eight
// neighbors whose fresh views advertise random holdings of the first
// ledgerSegs segments: two calls with one seed give two identical peers.
func ledgerPeer(seed int64, shared bool, ep Endpoint) *peer {
	rng := rand.New(rand.NewSource(seed))
	p := newPeer(spawnSpec{
		id: 0, profile: bandwidth.Profile{In: float64(2 + rng.Intn(12)), Out: 10}, bwFactor: 1,
		sessions: []segment.Session{{Begin: 0, End: segment.None}}, known: 1, mySession: -1,
		seed: rng.Int63(),
	}, testPeerParams(shared, false), sim.Fast(), ep, nil)
	for v, n := 1, 1+rng.Intn(8); v <= n; v++ {
		nb := buffer.New(sim.BufferCap)
		density := rng.Float64()
		for seg := segment.ID(0); seg < ledgerSegs; seg++ {
			if rng.Float64() < density {
				nb.Insert(seg)
			}
		}
		id := overlay.NodeID(v)
		p.neighbors = append(p.neighbors, id)
		// Rates of one to three segments a period keep the per-link
		// headroom short, so retries run out of alternates. The view
		// never goes stale.
		p.views[id] = &neighborView{m: nb.SnapshotFrom(0), maxSeen: ledgerSegs - 1, rate: float64(1 + rng.Intn(3)), period: 1 << 30}
	}
	return p
}

const ledgerSegs = 24

// TestLedgerMatchesMapBookkeeping drives the ledger-driven peer and the
// map reference (refBook) through one random sequence per seed of
// requests, denies, data and period boundaries, in both capacity
// substrates. Denies arrive only in the period their request was
// issued in, the one case where both versions must agree. After every
// step the in-flight sets with their issue ticks, the deny lists, the
// inbound budget (refunds), the per-supplier request counts and the
// queued frames with their re-request bits must be equal; the
// generators must end in step.
func TestLedgerMatchesMapBookkeeping(t *testing.T) {
	for _, shared := range []bool{true, false} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			var reReqs, retries, refunds, expired, forgotten int
			for seed := int64(1); seed <= 600; seed++ {
				var got, want recEndpoint
				p := ledgerPeer(seed, shared, &got)
				ref := &refBook{peer: ledgerPeer(seed, shared, &want),
					requested: map[segment.ID]int{}, deniedBy: map[segment.ID][]overlay.NodeID{}, timedOut: map[segment.ID]int{}}
				ops := rand.New(rand.NewSource(-seed))
				step := func(what string) {
					t.Helper()
					if err := sameBook(p, ref); err != "" {
						t.Fatalf("seed %d, tick %d, after %s: %s", seed, p.tick, what, err)
					}
				}
				for tick := 1; tick <= 30; tick++ {
					inflight, lost := len(ref.requested), len(ref.timedOut)
					p.tick, ref.tick = tick, tick
					p.refill()
					ref.refill()
					expired += inflight - len(ref.requested)
					forgotten += lost + inflight - len(ref.requested) - len(ref.timedOut)
					step("refill")
					for range ops.Intn(12) {
						switch op := ops.Intn(10); {
						case op < 4: // a planned request, as schedule issues it
							seg := segment.ID(ops.Intn(ledgerSegs))
							if _, inflight := ref.requested[seg]; inflight || ref.in.Available() < 1 {
								continue
							}
							if _, lost := ref.timedOut[seg]; lost {
								reReqs++
							}
							sup := p.neighbors[ops.Intn(len(p.neighbors))]
							p.request(seg, sup)
							ref.request(seg, sup)
							step(fmt.Sprintf("request %d from %d", seg, sup))
						case op < 7: // a deny, of this period's requests only
							var fresh []segment.ID
							for seg, at := range ref.requested {
								if at == tick {
									fresh = append(fresh, seg)
								}
							}
							slices.Sort(fresh)
							seg := segment.ID(ops.Intn(ledgerSegs)) // stale, unless in flight
							if len(fresh) > 0 && ops.Intn(4) != 0 {
								seg = fresh[ops.Intn(len(fresh))]
							}
							if at, ok := ref.requested[seg]; ok && at != tick {
								continue
							}
							from := p.neighbors[ops.Intn(len(p.neighbors))]
							avail := ref.in.Available()
							p.handleDeny(from, seg)
							ref.handleDeny(from, seg)
							if _, ok := ref.requested[seg]; ok {
								retries++
							} else if ref.in.Available() > avail {
								refunds++
							}
							step(fmt.Sprintf("deny of %d by %d", seg, from))
						default: // data, in flight or not
							seg := segment.ID(ops.Intn(ledgerSegs))
							p.handleData(seg)
							ref.handleData(seg)
							step(fmt.Sprintf("data %d", seg))
						}
					}
				}
				if p.rng.Int63() != ref.rng.Int63() {
					t.Fatalf("seed %d: the generators left the bookkeeping out of step", seed)
				}
			}
			t.Logf("%d re-requests, %d deny retries, %d refunds, %d expired requests, %d forgotten losses",
				reReqs, retries, refunds, expired, forgotten)
			if reReqs == 0 || retries == 0 || refunds == 0 || expired == 0 || forgotten == 0 {
				t.Fatal("the comparison is vacuous: no re-request, retry, refund, expiry or forgotten loss")
			}
		})
	}
}

// sameBook compares the ledger-driven peer with the reference; "" means
// equal.
func sameBook(p *peer, ref *refBook) string {
	inflight := map[segment.ID]int{}
	for _, seg := range p.ledger.InFlight() {
		at, _ := p.ledger.IssuedAt(seg)
		inflight[seg] = at
	}
	switch {
	case !maps.Equal(inflight, ref.requested):
		return fmt.Sprintf("in flight %v, reference %v", inflight, ref.requested)
	case *p.in != *ref.in:
		return fmt.Sprintf("inbound %v, reference %v", *p.in, *ref.in)
	case !maps.Equal(p.reqPer, ref.reqPer):
		return fmt.Sprintf("requests per supplier %v, reference %v", p.reqPer, ref.reqPer)
	case p.denies != ref.denies || p.dupes != ref.dupes || p.dataBits != ref.dataBits:
		return fmt.Sprintf("denies/dupes/data bits %d/%d/%d, reference %d/%d/%d",
			p.denies, p.dupes, p.dataBits, ref.denies, ref.dupes, ref.dataBits)
	case !slices.Equal(p.ep.(*recEndpoint).frames, ref.ep.(*recEndpoint).frames):
		return fmt.Sprintf("queued\n %v\nreference\n %v", p.ep.(*recEndpoint).frames, ref.ep.(*recEndpoint).frames)
	}
	for seg := segment.ID(0); seg < ledgerSegs; seg++ {
		if got, want := p.ledger.Denied(seg), ref.deniedBy[seg]; !slices.Equal(got, want) {
			return fmt.Sprintf("segment %d denied by %v, reference %v", seg, got, want)
		}
	}
	return ""
}
