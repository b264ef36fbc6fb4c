package sim

import (
	"math/rand"
	"slices"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/overlay"
	"gossipstream/internal/sim/engine"
)

// The serve phase resolves the round's requests at every supplier in two
// sub-steps:
//
//   - propose (parallel, sharded over suppliers): each supplier answers
//     its request queue with the shared serving step (Server,
//     peercore.go), which spends its capacity immediately, and every
//     grant becomes a tentative proposal. Requester state is only read
//     (it is frozen during the parallel step), so proposals depend solely
//     on round-start state and supplier-local state: deterministic at any
//     worker count.
//
//   - commit: each proposal is re-validated against the requester's live
//     inbound budget, which competing suppliers may have oversubscribed
//     during propose. Winners become deliveries; losers refund the
//     supplier's spent capacity so it is available to the next round
//     (capacity is per period). The commit is sharded over
//     *requesters*: a proposal's fate depends only on its requester's
//     inbound budget and per-requester arrival order, so workers that
//     own disjoint requester shards decide independently — see commit
//     for the exact argument.

// serveRound executes propose and commit for the current round, setting
// s.granted when any grant landed.
func (s *Sim) serveRound() {
	n := len(s.nodes)
	shards := s.ensureShards(n)
	round := s.round
	s.pool.Run(shards, func(worker, shard int) {
		ws := s.workers[worker]
		sh := &s.shards[shard]
		sh.proposals = sh.proposals[:0]
		// Only the shared-outbound server draws: one stream per shard,
		// walked by its suppliers in id order.
		var rng *rand.Rand
		if s.cfg.SharedOutbound {
			rng = ws.stream(engine.SeedFor(s.cfg.Seed, rngServe, s.tick, round, shard))
		}
		lo, hi := engine.ShardSpan(n, shard)
		for sid := lo; sid < hi; sid++ {
			if reqs := s.incoming[sid]; len(reqs) > 0 {
				s.propose(ws, sh, overlay.NodeID(sid), reqs, rng)
			}
		}
		sh.buildCommitIndex(shards)
	})
	s.commit(shards, round)
}

// commit resolves the round's proposals. A proposal's fate depends on
// exactly two things: its requester's inbound budget and the order the
// requester's proposals arrive in the global (shard, position) order.
// Both are requester-local, so the decisions are sharded over
// requesters: each worker visits, for its own requesters only, their
// subsequence of that global order (source shards ascending, original
// proposal order within each — the per-source commit index is a *stable*
// sort by requester shard, so intra-shard order survives the bucketing).
// Identical per-requester order plus untouched cross-requester state
// means bit-identical Take/Issue decisions at any worker count.
//
// Writes stay disjoint: requester state (inbound budget, ledger,
// linkGrants refunds) belongs to the worker owning the requester's shard;
// accept flags land at distinct indexes of the source shards' flag
// arrays; deliveries and counters buffer in the requester shard's
// scratch. The two cross-shard effects — shared-mode supplier refunds and
// the global window counters — are deferred to a serial shard-ordered
// reduce. Refunds only influence the *next* round's planning (commit
// decisions never read supplier budgets), so deferring them to the end
// of the round changes nothing.
//
// Under the netmodel transport the committed grant becomes an in-flight
// message instead of an end-of-tick delivery, and the sends themselves
// stay serial: a final pass walks the accept flags in the original
// (shard, position) order, so the jitter draws — from a dedicated
// per-(tick, round) stream — and the transport sequence numbers do not
// depend on the worker count.
func (s *Sim) commit(shards, round int) {
	s.pool.Run(shards, func(_, d int) {
		dsh := &s.shards[d]
		dsh.refundSup = dsh.refundSup[:0]
		dsh.committed, dsh.reRequests = 0, 0
		for si := 0; si < shards; si++ {
			src := &s.shards[si]
			for _, idx := range src.propOrder[src.propOff[d]:src.propOff[d+1]] {
				p := src.proposals[idx]
				req := s.nodes[p.From]
				if !req.in.Take(1) {
					if s.cfg.SharedOutbound {
						dsh.refundSup = append(dsh.refundSup, p.sup)
					} else {
						req.linkGrants[p.Link]--
					}
					continue
				}
				reReq := req.ledger.Issue(p.Seg, s.tick)
				src.accept[idx] = true
				dsh.committed++
				if s.net != nil {
					if reReq {
						s.obsReReq.Inc() // atomic; observational only
						if s.win.Active() {
							dsh.reRequests++
						}
					}
				} else {
					dsh.landed = append(dsh.landed, delivery{to: p.From, seg: p.Seg})
				}
			}
		}
	})

	// Serial reduce in shard order: supplier refunds and window counters.
	granted := false
	for d := 0; d < shards; d++ {
		dsh := &s.shards[d]
		if dsh.committed > 0 {
			granted = true
		}
		s.obsSent.Add(int64(dsh.committed))
		for _, sup := range dsh.refundSup {
			s.nodes[sup].out.Refund(1)
		}
		if s.win.Active() {
			s.win.AddBits(0, int64(dsh.committed)*bandwidth.BitsForSegments(1))
			s.win.AddReRequests(int64(dsh.reRequests))
		}
	}
	s.granted = granted

	// Netmodel landing: serial sends in the original commit order.
	if s.net != nil {
		jitterMS := s.net.JitterMS()
		s.jitterRNG.Seed(engine.SeedFor(s.cfg.Seed, rngNetJit, s.tick, round, 0))
		for si := 0; si < shards; si++ {
			src := &s.shards[si]
			for idx, p := range src.proposals {
				if !src.accept[idx] {
					continue
				}
				var jitter float64
				if jitterMS > 0 {
					jitter = s.jitterRNG.Float64() * jitterMS
				}
				s.net.Send(s.tick, p.sup, p.From, p.Seg, jitter)
				s.audInjected++
			}
		}
	}
}

// buildCommitIndex prepares the shard's proposals for the commit:
// propOrder is the proposal indexes stably sorted by requester shard
// (bucketByShard), so requester shard d's proposals are
// propOrder[propOff[d]:propOff[d+1]] in original proposal order; accept
// is the cleared per-proposal win flags.
func (sh *shardScratch) buildCommitIndex(shards int) {
	n := len(sh.proposals)
	sh.accept = slices.Grow(sh.accept[:0], n)[:n]
	clear(sh.accept)
	sh.propOrder = slices.Grow(sh.propOrder[:0], n)[:n]
	sh.propOff = bucketByShard(sh.propOff, shards, n,
		func(i int) int { return engine.ShardOf(int(sh.proposals[i].From)) },
		func(i int, at int32) { sh.propOrder[at] = int32(i) })
}

// propose answers supplier sid's queue and turns its grants into
// proposals, in the order the supplier reached them. The requester-side
// link counter (linkGrants, see simFacts) belongs to exactly one
// supplier, so the concurrent increments are race-free.
func (s *Sim) propose(ws *workerScratch, sh *shardScratch, sid overlay.NodeID, reqs []Request, rng *rand.Rand) {
	sup := s.nodes[sid]
	ws.Serve(reqs, sup.buf, sup.out, rng, (*simFacts)(s))
	for _, a := range ws.Answers {
		if a.Grant {
			sh.proposals = append(sh.proposals, routedRequest{sup: sid, Request: reqs[a.At]})
		}
	}
}
