package runtime

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim"
)

// refServer carries the live supplier's answer to an inbox burst as it
// was before the peer drove the shared serving step (sim.Server):
// servePending and serve below are kept verbatim as the reference, on a
// wrapper that holds the fields the peer no longer has. The new driver
// must queue the same data and deny frames in the same order and leave
// the peer's generator at the same position, except at zero outbound,
// where it now answers in arrival order without drawing.
type refServer struct {
	*peer
	pending   []pullReq
	served    map[segment.ID]bool
	grantsOut map[overlay.NodeID]int
}

// pullReq is one received pull request awaiting its answer.
type pullReq struct {
	from  overlay.NodeID
	seg   segment.ID
	reReq bool
}

// servePending answers the burst's requests. In the shared-outbound
// substrate it applies the simulator's service rule (phase_serve.go
// proposeShared): random order, each distinct segment granted once
// before leftover capacity goes to duplicates — a congested supplier
// that answered in arrival order would hand same-depth requesters the
// same segments and leave them nothing to trade. Per-link caps are per
// requester, so there arrival order stands.
func (p *refServer) servePending() {
	reqs := p.pending
	if p.par.Shared && len(reqs) > 1 {
		p.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		clear(p.served)
		dups := 0
		for _, r := range reqs {
			if p.served[r.seg] {
				reqs[dups] = r // deferred to the duplicate pass
				dups++
				continue
			}
			p.served[r.seg] = p.serve(r.from, r.seg, r.reReq)
		}
		reqs = reqs[:dups]
	}
	for _, r := range reqs {
		p.serve(r.from, r.seg, r.reReq)
	}
	p.pending = p.pending[:0]
}

// serve answers one pull request: grant under this period's capacity,
// deny otherwise, and reports whether it granted. The requester's own
// state is unknown here — unlike the simulator's serve phase, a live
// supplier cannot read the requester's budget, so over-subscription
// resolves at the requester (duplicate data is dropped on arrival).
func (p *refServer) serve(from overlay.NodeID, seg segment.ID, reReq bool) bool {
	grant := p.buf.Has(seg)
	if grant {
		if p.par.Shared {
			grant = p.out.Take(1)
		} else if p.grantsOut[from] < sim.LinkCap(sim.LinkRate(p.out.Rate(), false)) {
			p.grantsOut[from]++
		} else {
			grant = false
		}
	}
	if grant && reReq {
		// A loss-induced re-request re-granted: the counter the
		// simulator's serve phase keeps as NetReRequests.
		p.reReqs++
	}
	kind := FrameData
	if !grant {
		kind = FrameDeny
	}
	p.ep.Queue(Frame{Kind: kind, Msg: netmodel.Message{To: from, Seg: seg, Sent: p.tick}})
	return grant
}

// burstPeer builds a supplier from a seed alone, so two calls with one
// seed give two identical peers: a random outbound rate (zero included),
// holding and per-requester grant counters, and a random burst of
// requests, some carrying the re-request bit.
func burstPeer(seed int64, shared bool, ep Endpoint) (*peer, []pullReq, map[overlay.NodeID]int) {
	const segs = 24
	rng := rand.New(rand.NewSource(seed))
	out := []float64{0, 0.5, 1, 2, 3, 5, 8, 30}[rng.Intn(8)]
	p := newPeer(spawnSpec{
		id: 0, profile: bandwidth.Profile{In: 10, Out: out}, bwFactor: 1,
		sessions: []segment.Session{{Begin: 0, End: segment.None}}, known: 1, mySession: -1, seed: rng.Int63(),
	}, testPeerParams(shared, false), sim.Fast(), ep, nil)
	p.tick = 7
	p.out.Refill(1)
	density := rng.Float64()
	for seg := segment.ID(0); seg < segs; seg++ {
		if rng.Float64() < density {
			p.buf.Insert(seg)
		}
	}
	grants := map[overlay.NodeID]int{}
	for v := overlay.NodeID(1); v <= 12; v++ {
		if n := rng.Intn(4); n > 0 {
			grants[v] = n
		}
	}
	burst := make([]pullReq, rng.Intn(30))
	for i := range burst {
		// Few distinct segments, so the duplicate pass has work.
		burst[i] = pullReq{from: overlay.NodeID(1 + rng.Intn(12)), seg: segment.ID(rng.Intn(segs / 2)), reReq: rng.Intn(4) == 0}
	}
	return p, burst, grants
}

// TestAnswerBurstMatchesOracle replays random bursts through the new
// driver (answerBurst on sim.Server) and the kept servePending, in both
// substrates.
func TestAnswerBurstMatchesOracle(t *testing.T) {
	for _, shared := range []bool{true, false} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			grants, dupes, denies, unshuffled, capDenied := 0, 0, 0, 0, 0
			for seed := int64(1); seed <= 200; seed++ {
				var got, want, idle recEndpoint
				p, burst, counts := burstPeer(seed, shared, &got)
				ref, _, _ := burstPeer(seed, shared, &want)
				untouched, _, _ := burstPeer(seed, shared, &idle)
				r := &refServer{peer: ref, pending: slices.Clone(burst), served: map[segment.ID]bool{}, grantsOut: counts}
				for v, n := range counts {
					*p.LinkGrants(sim.Request{From: v}) = int32(n)
				}
				for _, b := range burst {
					p.pending = append(p.pending, sim.Request{From: b.from, Seg: b.seg})
					p.reReq = append(p.reReq, b.reReq)
				}
				idleOut := shared && p.out.Available() < 1
				p.answerBurst()
				r.servePending()

				if idleOut {
					// The new path answers in arrival order and draws
					// nothing; the old one shuffled the same denies.
					var arrival []sentFrame
					for _, b := range burst {
						arrival = append(arrival, sentFrame{Kind: FrameDeny, To: b.from, Seg: b.seg})
					}
					if !slices.Equal(got.frames, arrival) {
						t.Fatalf("seed %d: at zero outbound queued %v, want denies in arrival order %v", seed, got.frames, arrival)
					}
					if !slices.Equal(sortFrames(got.frames), sortFrames(want.frames)) {
						t.Fatalf("seed %d: at zero outbound queued %v, oracle %v", seed, got.frames, want.frames)
					}
					if p.rng.Int63() != untouched.rng.Int63() {
						t.Fatalf("seed %d: the answer drew from the generator at zero outbound", seed)
					}
					if len(burst) > 1 {
						unshuffled++
					}
				} else {
					if !slices.Equal(got.frames, want.frames) {
						t.Fatalf("seed %d: queued\n got %v\nwant %v", seed, got.frames, want.frames)
					}
					if p.rng.Int63() != ref.rng.Int63() {
						t.Fatalf("seed %d: the generators left the answers out of step", seed)
					}
				}
				if *p.out != *ref.out || p.reReqs != ref.reReqs {
					t.Fatalf("seed %d: outbound %v and %d re-requests, oracle %v and %d", seed, *p.out, p.reReqs, *ref.out, ref.reReqs)
				}
				for v, n := range r.grantsOut {
					if c := *p.LinkGrants(sim.Request{From: v}); int(c) != n {
						t.Fatalf("seed %d: %d grants toward %d, oracle %d", seed, c, v, n)
					}
				}
				if len(p.pending) != 0 || len(p.reReq) != 0 {
					t.Fatalf("seed %d: %d requests left pending", seed, len(p.pending))
				}
				granted := map[segment.ID]bool{}
				for _, f := range got.frames {
					if f.Kind == FrameData {
						grants++
						if granted[f.Seg] {
							dupes++
						}
						granted[f.Seg] = true
					} else {
						denies++
						if !shared && p.buf.Has(f.Seg) {
							// Held, and a live supplier takes the requester
							// at its word: only the link's cap was spent.
							capDenied++
						}
					}
				}
			}
			t.Logf("%d grants (%d duplicate) and %d denies (%d by a spent link) compared, %d multi-request bursts at zero outbound", grants, dupes, denies, capDenied, unshuffled)
			if grants == 0 || dupes == 0 || denies == 0 || (shared && unshuffled == 0) || (!shared && capDenied == 0) {
				t.Fatal("the comparison is vacuous: no grants, no duplicate grants, no denies, no idle supplier or no link-cap denial")
			}
		})
	}
}

func sortFrames(fs []sentFrame) []sentFrame {
	return slices.SortedFunc(slices.Values(fs), func(a, b sentFrame) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.Seg, b.Seg), cmp.Compare(a.Kind, b.Kind))
	})
}
