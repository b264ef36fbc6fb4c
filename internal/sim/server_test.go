package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/buffer"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

// proposePerLink and proposeShared are the serve phase's propose step as
// it was before the serving step moved into Server (peercore.go), kept
// verbatim as the reference, on the scratch, queue entry and outbox they
// ran on. The shipped propose must make the same proposals, spend the
// same capacity and leave the shard's generator at the same position.

type serveScratch struct {
	seen     segSet
	reqCount nodeCounter
	retry    []int32
}

type pullRequest struct {
	from  overlay.NodeID
	seg   segment.ID
	nbIdx int32
}

type proposal struct {
	sup   overlay.NodeID
	from  overlay.NodeID
	seg   segment.ID
	nbIdx int32
}

type proposalOutbox struct{ proposals []proposal }

// proposePerLink proposes grants under the paper's link-capacity
// semantics. The per-pair counter lives requester-side
// (req.linkGrants[nbIdx]); the slot belongs to exactly one supplier, so
// the concurrent increment is race-free.
func (s *Sim) proposePerLink(ws *serveScratch, sh *proposalOutbox, sid overlay.NodeID, reqs []pullRequest) {
	sup := s.nodes[sid]
	perLink := int32(s.linkCap(sup))
	ws.reqCount.begin()
	for _, r := range reqs {
		req := s.nodes[r.from]
		if !req.alive || req.in.Available() < int(ws.reqCount.get(r.from))+1 ||
			!sup.buf.Has(r.seg) || req.buf.Has(r.seg) || req.ledger.Has(r.seg) {
			continue
		}
		if req.linkGrants[r.nbIdx] >= perLink {
			continue // this link's period capacity is exhausted
		}
		req.linkGrants[r.nbIdx]++
		ws.reqCount.inc(r.from)
		sh.proposals = append(sh.proposals, proposal{sup: sid, from: r.from, seg: r.seg, nbIdx: r.nbIdx})
	}
}

// proposeShared proposes grants under an aggregate outbound budget with
// randomized, distinct-first service order.
func (s *Sim) proposeShared(ws *serveScratch, sh *proposalOutbox, sid overlay.NodeID, reqs []pullRequest, rng *rand.Rand) {
	sup := s.nodes[sid]
	if sup.out.Available() < 1 {
		return
	}
	// Deterministic shuffle from the shard's RNG stream.
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	ws.seen.begin()     // distinct segments proposed so far
	ws.reqCount.begin() // per-requester proposals in this queue
	propose := func(r pullRequest) bool {
		req := s.nodes[r.from]
		if !req.alive || req.in.Available() < int(ws.reqCount.get(r.from))+1 ||
			!sup.buf.Has(r.seg) || req.buf.Has(r.seg) || req.ledger.Has(r.seg) {
			return false
		}
		sup.out.Take(1)
		ws.seen.add(r.seg)
		ws.reqCount.inc(r.from)
		sh.proposals = append(sh.proposals, proposal{sup: sid, from: r.from, seg: r.seg, nbIdx: r.nbIdx})
		return true
	}
	// Pass 1: distinct segments only; queue entries deferred by the
	// distinct-first rule are collected for the duplicate pass (an entry
	// proposed once must not be proposed again — the grant is pending).
	ws.retry = ws.retry[:0]
	for i, r := range reqs {
		if sup.out.Available() < 1 {
			break
		}
		if ws.seen.has(r.seg) {
			ws.retry = append(ws.retry, int32(i))
			continue
		}
		propose(r)
	}
	// Pass 2: spend leftover capacity on duplicate segments.
	for _, i := range ws.retry {
		if sup.out.Available() < 1 {
			break
		}
		propose(reqs[i])
	}
}

// serveWorld builds, from a seed alone, one supplier (node 0) and up to a
// dozen requesters with random liveness, inbound budgets, holdings,
// pending grants and link counters, and a random queue at the supplier:
// two calls with one seed give two identical worlds.
func serveWorld(seed int64, shared bool) (*Sim, []Request) {
	const segs, deg = 24, 3
	rng := rand.New(rand.NewSource(seed))
	s := &Sim{cfg: Config{SharedOutbound: shared}}
	for id := range 2 + rng.Intn(12) {
		n := &nodeState{id: overlay.NodeID(id), buf: buffer.New(64), alive: rng.Intn(10) != 0}
		n.in = bandwidth.NewBudget(float64(rng.Intn(6)))
		n.in.Refill(1)
		n.out = bandwidth.NewBudget([]float64{0, 0.5, 1, 2, 3, 5, 8, 30}[rng.Intn(8)])
		n.out.Refill(1)
		density := rng.Float64()
		for seg := segment.ID(0); seg < segs; seg++ {
			switch {
			case rng.Float64() < density:
				n.buf.Insert(seg)
			case rng.Intn(8) == 0:
				n.ledger.Issue(seg, 0)
			}
		}
		for range deg {
			n.linkGrants = append(n.linkGrants, int32(rng.Intn(3)))
		}
		s.nodes = append(s.nodes, n)
	}
	reqs := make([]Request, rng.Intn(30))
	for i := range reqs {
		reqs[i] = Request{
			From: overlay.NodeID(1 + rng.Intn(len(s.nodes)-1)),
			// Few distinct segments, so the duplicate pass has work.
			Seg:  segment.ID(rng.Intn(segs / 2)),
			Link: int32(rng.Intn(deg)),
		}
	}
	return s, reqs
}

// TestProposeMatchesOracle replays random supplier queues through the
// shipped propose (Server) and the kept oracles, in both substrates, and
// compares the proposals, the supplier's outbound budget, every
// requester's link counters and the generator's next draw.
func TestProposeMatchesOracle(t *testing.T) {
	for _, shared := range []bool{true, false} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			proposals, duplicates, full, capDenied := 0, 0, 0, 0
			for seed := int64(1); seed <= 2000; seed++ {
				got, reqs := serveWorld(seed, shared)
				want, _ := serveWorld(seed, shared)
				old := make([]pullRequest, len(reqs))
				for i, r := range reqs {
					old[i] = pullRequest{from: r.From, seg: r.Seg, nbIdx: r.Link}
				}
				var gotRNG, wantRNG *rand.Rand
				if shared {
					gotRNG, wantRNG = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				}
				ws := &workerScratch{Server: NewServer(PeerParams{Shared: shared})}
				var gotSh shardScratch
				var wantSh proposalOutbox
				got.propose(ws, &gotSh, 0, reqs, gotRNG)
				if shared {
					want.proposeShared(&serveScratch{}, &wantSh, 0, old, wantRNG)
				} else {
					want.proposePerLink(&serveScratch{}, &wantSh, 0, old)
				}
				var proposed []proposal
				for _, p := range gotSh.proposals {
					proposed = append(proposed, proposal{sup: p.sup, from: p.From, seg: p.Seg, nbIdx: p.Link})
				}
				if !slices.Equal(proposed, wantSh.proposals) {
					t.Fatalf("seed %d: proposals\n got %v\nwant %v", seed, proposed, wantSh.proposals)
				}
				if *got.nodes[0].out != *want.nodes[0].out {
					t.Fatalf("seed %d: supplier outbound %v, oracle %v", seed, *got.nodes[0].out, *want.nodes[0].out)
				}
				for id := range got.nodes {
					if !slices.Equal(got.nodes[id].linkGrants, want.nodes[id].linkGrants) {
						t.Fatalf("seed %d: node %d link grants %v, oracle %v", seed, id, got.nodes[id].linkGrants, want.nodes[id].linkGrants)
					}
				}
				if shared && gotRNG.Int63() != wantRNG.Int63() {
					t.Fatalf("seed %d: the generators left propose out of step", seed)
				}
				if len(ws.Answers) != len(reqs) {
					t.Fatalf("seed %d: %d answers to %d requests", seed, len(ws.Answers), len(reqs))
				}
				proposals += len(gotSh.proposals)
				seen := map[segment.ID]bool{}
				for _, p := range proposed {
					if seen[p.seg] {
						duplicates++
					}
					seen[p.seg] = true
				}
				if capped(got, seed) {
					full++
				}
				if !shared {
					capDenied += linkCapDenied(got, reqs, ws.Answers)
				}
			}
			t.Logf("%d proposals compared, %d duplicate grants, %d queues that ran a budget or link out, %d requests denied by a spent link", proposals, duplicates, full, capDenied)
			if proposals == 0 || full == 0 || (shared && duplicates == 0) || (!shared && capDenied == 0) {
				t.Fatal("the comparison is vacuous: no proposals, exhausted capacity, duplicate grants or link-cap denials")
			}
		})
	}
}

// linkCapDenied counts the requests of a per-link queue that supplier 0
// denied only because their link's capacity was spent: it holds the
// segment and the requester could still take it after its grants earlier
// in the queue. Serving touches no requester state but the link counters,
// so the facts read after the queue are the facts it was served against.
func linkCapDenied(s *Sim, reqs []Request, answers []Answer) int {
	denied := 0
	granted := map[overlay.NodeID]int32{}
	for _, a := range answers {
		r := reqs[a.At]
		switch {
		case a.Grant:
			granted[r.From]++
		case s.nodes[0].buf.Has(r.Seg) && (*simFacts)(s).Takes(r, granted[r.From]):
			denied++
		}
	}
	return denied
}

// capped reports whether serving s's queue ran out of room: the
// supplier's whole outbound budget, or a link counter that rose to the
// link's capacity.
func capped(s *Sim, seed int64) bool {
	if s.cfg.SharedOutbound {
		return s.nodes[0].out.Available() == 0
	}
	pre, _ := serveWorld(seed, false)
	linkCap := int32(s.linkCap(s.nodes[0]))
	for id, n := range s.nodes {
		for k, c := range n.linkGrants {
			if c == linkCap && pre.nodes[id].linkGrants[k] < c {
				return true
			}
		}
	}
	return false
}
