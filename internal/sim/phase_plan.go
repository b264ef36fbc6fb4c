package sim

import (
	"math/rand"
	"slices"

	"gossipstream/internal/bitfield"
	"gossipstream/internal/core"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim/engine"
)

// The plan phase runs every alive non-source node's scheduler and routes
// the resulting pull requests to their suppliers. Nodes are sharded on
// the engine grid; each shard plans its nodes with a dedicated RNG stream
// and buffers its requests in a per-shard outbox, stably bucketed by
// destination shard; a second pass, sharded over suppliers, gathers each
// supplier shard's slice of every outbox in source-shard order. A
// supplier's queue is therefore its requests in (source shard, planning
// order) — a supplier's requests within one outbox keep their planning
// order (stable bucketing) and outboxes are visited in shard order — so
// the queue contents are identical at any worker count.

// phaseSchedule drives the per-period plan/serve rounds: planning and
// serving repeat up to ServeRounds times, because the period is one
// second while a pull round-trip is tens of milliseconds — a real node
// re-requests segments its first-choice supplier had no capacity for.
// Budgets persist across rounds (capacity is per period), and segments
// granted in any round land at period end (one overlay hop per period).
func (s *Sim) phaseSchedule() {
	s.sessions = s.tl.SessionsInto(s.sessions)
	s.ensureShards(len(s.nodes))
	for i := range s.shards {
		s.shards[i].landed = s.shards[i].landed[:0]
	}
	s.diagRequests, s.diagCandidates, s.diagPlanned = 0, 0, 0
	for s.round = 0; s.round < s.cfg.ServeRounds; s.round++ {
		s.granted = false
		s.sched.Run() // plan, then serve
		if !s.granted && s.round > 0 {
			break // no grants: further rounds cannot progress
		}
	}
}

// planRound is the planning half of one scheduling round. On round 0 it
// also snapshots each node's plan view (neighbor suppliers + undelivered
// windows) for the period and accounts the buffer-map exchange: each
// alive node receives one 620-bit map per alive neighbor per period
// (retry rounds reuse the same maps).
func (s *Sim) planRound() {
	n := len(s.nodes)
	shards := s.ensureShards(n)
	round := s.round
	s.pool.Run(shards, func(worker, shard int) {
		ws := s.workers[worker]
		sh := &s.shards[shard]
		sh.requests = sh.requests[:0]
		sh.controlBits = 0
		sh.diagRequests, sh.diagCandidates, sh.diagPlanned = 0, 0, 0
		if round == 0 {
			// New period: the plan-view arenas are rebuilt from scratch
			// (buildView repopulates them for every planning node below).
			sh.supArena = sh.supArena[:0]
			sh.supAdjArena = sh.supAdjArena[:0]
			sh.needArena = sh.needArena[:0]
		}
		rng := ws.seedRNG(engine.SeedFor(s.cfg.Seed, rngPlan, s.tick, round, shard))
		wire := int64(bitfield.WireBits(s.cfg.BufferCap))
		lo, hi := engine.ShardSpan(n, shard)
		for i := lo; i < hi; i++ {
			nd := s.nodes[i]
			if !nd.alive {
				continue
			}
			// Map exchange cost: nd receives its alive neighbors' maps
			// (maps do not cross an active partition).
			if s.win.active && round == 0 {
				for _, v := range s.g.Neighbors(nd.id) {
					if s.nodes[v].alive && !s.blocked(nd.id, v) {
						sh.controlBits += wire
					}
				}
			}
			if nd.isSource || nd.profile.In <= 0 || nd.in.Available() < 1 {
				continue
			}
			s.planNode(ws, sh, nd, round, rng)
		}
		// Stable bucketing by destination shard: a supplier's requests
		// keep their planning order through the gather below.
		sh.bucketRequests(shards)
	})
	// Scalar reduce in shard order.
	for si := 0; si < shards; si++ {
		sh := &s.shards[si]
		s.controlBits += sh.controlBits
		s.diagRequests += sh.diagRequests
		s.diagCandidates += sh.diagCandidates
		s.diagPlanned += sh.diagPlanned
	}
	// Gather, sharded over *suppliers*: each worker fills its own shard's
	// queues by visiting every outbox's slice for that shard in
	// source-shard order — no write conflicts.
	s.pool.Run(shards, func(_, d int) {
		lo, hi := engine.ShardSpan(n, d)
		for i := lo; i < hi; i++ {
			s.incoming[i] = s.incoming[i][:0]
		}
		for si := 0; si < shards; si++ {
			sh := &s.shards[si]
			for _, rr := range sh.requests[sh.reqOff[d]:sh.reqOff[d+1]] {
				s.incoming[rr.sup] = append(s.incoming[rr.sup], rr.req)
			}
		}
	})
}

// bucketRequests stably regroups the outbox by destination shard and
// records where each shard's requests start: those addressed to shard d
// end up in requests[reqOff[d]:reqOff[d+1]], in planning order. The
// regrouped outbox is built in the spare one and the two swap.
func (sh *shardScratch) bucketRequests(shards int) {
	reqs := sh.requests
	sorted := slices.Grow(sh.reqSpare[:0], len(reqs))[:len(reqs)]
	sh.reqOff = bucketByShard(sh.reqOff, shards, len(reqs),
		func(i int) int { return engine.ShardOf(int(reqs[i].sup)) },
		func(i int, at int32) { sorted[at] = reqs[i] })
	sh.requests, sh.reqSpare = sorted, reqs
}

// bucketByShard is a stable counting sort of items 0..n-1 by shard id —
// the key range is the shard count, so counting beats comparing, and a
// stable sort by a given key has only one result. It calls place(i, at)
// with the sorted position of every item, in item order, and returns the
// offsets (reusing off's backing): shard d's items occupy positions
// [off[d], off[d+1]).
func bucketByShard(off []int32, shards, n int, shardOf func(i int) int, place func(i int, at int32)) []int32 {
	// Counted two slots up, so that after the prefix sum off[d+1] is the
	// position of shard d's first item; placing advances it to the
	// shard's end, which is where shard d+1 starts.
	off = slices.Grow(off[:0], shards+2)[:shards+2]
	clear(off)
	for i := 0; i < n; i++ {
		off[shardOf(i)+2]++
	}
	for d := 3; d < len(off); d++ {
		off[d] += off[d-1]
	}
	for i := 0; i < n; i++ {
		d := shardOf(i)
		place(i, off[d+1])
		off[d+1]++
	}
	return off[:shards+1]
}

// planNode runs one node's scheduler for the round and queues its
// requests in the shard outbox.
func (s *Sim) planNode(ws *workerScratch, sh *shardScratch, n *nodeState, round int, rng *rand.Rand) {
	if round == 0 {
		s.buildView(sh, n)
	}
	for i := range n.linkReqs {
		n.linkReqs[i] = 0 // per-round prefetch request counters
	}
	// Assigned field by field: Env also carries BuildCandidates' reused
	// availability scratch, which a struct literal would drop.
	ws.env.Tau = s.cfg.Tau
	ws.env.P = s.cfg.P
	ws.env.Q = float64(s.cfg.Q)
	ws.env.Inbound = n.profile.In
	ws.env.Playhead = n.WindowLo()
	ws.env.Suppliers = ws.env.Suppliers[:0]
	ws.supAdj = ws.supAdj[:0]
	for k := range n.viewSuppliers {
		sup := n.viewSuppliers[k]
		if round > 0 {
			// Skip neighbors that signalled "busy" in the previous round:
			// exhausted aggregate outbound (shared mode) or an exhausted
			// link to this node (per-link mode).
			nb := s.nodes[sup.ID]
			if s.cfg.SharedOutbound {
				if nb.out.Available() < 1 {
					continue
				}
			} else if int(n.linkGrants[n.viewSupAdj[k]]) >= s.linkCap(nb) {
				continue
			}
		}
		ws.env.Suppliers = append(ws.env.Suppliers, sup)
		ws.supAdj = append(ws.supAdj, n.viewSupAdj[k])
	}

	// Needs: the cached per-period windows, minus segments granted in
	// earlier rounds of this period (in flight, must not be re-requested).
	needOld, needNew := n.needOld, n.needNew
	ws.seen.begin()
	if round > 0 && len(n.granted) > 0 {
		for _, id := range n.granted {
			ws.seen.add(id)
		}
		needOld = filterSeen(ws.needOld[:0], n.needOld, &ws.seen)
		ws.needOld = needOld
		needNew = filterSeen(ws.needNew[:0], n.needNew, &ws.seen)
		ws.needNew = needNew
	}
	if len(needOld) == 0 && len(needNew) == 0 {
		return
	}
	ws.env.NeedOld, ws.env.NeedNew = needOld, needNew

	ws.algo.Plan(&ws.env, &ws.plan)
	sh.diagRequests += len(ws.plan.Requests)
	sh.diagCandidates += len(needOld) + len(needNew)
	sh.diagPlanned++
	for _, req := range ws.plan.Requests {
		sh.requests = append(sh.requests, routedRequest{
			sup: overlay.NodeID(req.Supplier),
			req: pullRequest{
				from:     n.id,
				seg:      req.Segment,
				expected: req.ExpectedAt,
				nbIdx:    ws.supAdj[req.SupplierIndex],
			},
		})
	}
	if !s.cfg.DisablePrefetch {
		s.prefetch(ws, sh, n, rng)
	}
}

// filterSeen appends the ids of src absent from seen to dst.
func filterSeen(dst, src []segment.ID, seen *segSet) []segment.ID {
	for _, id := range src {
		if !seen.has(id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// buildView snapshots the node's per-period plan view: its alive
// neighbors as suppliers (with their adjacency slots) and its undelivered
// windows. Built once per period — the view is stable across the retry
// rounds because buffers, rates and playheads only change at period
// boundaries; rounds re-filter it for busy suppliers and in-flight
// segments. Discovery of a new session happens here — the node notices
// neighbors advertising segments past the current session's end.
//
// The view lives as spans of the shard's arenas (the node fields are
// windows into them), appended shard-locally by the worker that owns the
// node — so the arena layout, like the view contents, is a pure function
// of shard state and the determinism contract is untouched.
func (s *Sim) buildView(sh *shardScratch, n *nodeState) {
	supBase := len(sh.supArena)
	maxAdvert := segment.None
	for ni, v := range s.g.Neighbors(n.id) {
		nb := s.nodes[v]
		if !nb.alive || s.blocked(n.id, v) {
			// Dead — or unreachable across an active partition: no maps,
			// no requests, no supply until the partition heals.
			continue
		}
		if len(sh.supArena)-supBase == core.MaxSuppliers {
			// Hubs created by the random augmentation can exceed the
			// scheduler's supplier mask; a node evaluates at most
			// MaxSuppliers neighbors per period (far beyond the M=5 a
			// real deployment maintains).
			break
		}
		if nb.maxSeen > maxAdvert {
			maxAdvert = nb.maxSeen
		}
		rate := s.linkRate(nb)
		if s.cfg.SharedOutbound {
			rate = nb.out.Rate()
		}
		sh.supArena = append(sh.supArena, core.Supplier{
			ID:   core.SupplierID(v),
			Rate: rate,
			View: nb.buf,
		})
		sh.supAdjArena = append(sh.supAdjArena, int32(ni))
	}
	n.viewSuppliers = sh.supArena[supBase:len(sh.supArena):len(sh.supArena)]
	n.viewSupAdj = sh.supAdjArena[supBase:len(sh.supAdjArena):len(sh.supAdjArena)]
	if maxAdvert == segment.None {
		n.needOld, n.needNew = nil, nil
		return
	}

	// Session discovery and the undelivered request windows: the shared
	// per-node protocol core (peercore.go), driven here against same-tick
	// buffer state and in the live runtime against decoded wire maps.
	n.Discover(s.sessions, maxAdvert)
	needBase := len(sh.needArena)
	arena, split := n.NeedWindowsInto(n.buf, s.sessions, maxAdvert,
		s.cfg.BufferCap, s.cfg.Qs, n.granted, sh.needArena)
	sh.needArena = arena
	n.needOld = arena[needBase:split:split]
	n.needNew = arena[split:len(arena):len(arena)]
}

// prefetch spends the node's leftover inbound budget on uniformly random
// missing segments of the node's *current* stream. This is the substrate
// behaviour of every data-driven mesh (random useful-piece selection): it
// decorrelates neighborhood holdings so all links stay useful. It runs
// identically under both switch algorithms, after — and never instead of —
// their prioritized requests.
//
// Crucially, prefetch never touches the next session's segments: how much
// inbound a node grants the new source before finishing the old one is
// exactly the decision the paper's switch algorithms make, and the
// emergent dissemination speed of S2 is the effect being measured.
func (s *Sim) prefetch(ws *workerScratch, sh *shardScratch, n *nodeState, rng *rand.Rand) {
	budget := n.in.Available() - len(ws.plan.Requests)
	if budget <= 0 {
		return
	}
	// Segments the plan already requested this round must not be asked
	// for again (ws.seen already stamps the in-flight set).
	for _, r := range ws.plan.Requests {
		ws.seen.add(r.Segment)
	}
	pool := append(ws.pool[:0], ws.env.NeedOld...)
	ws.pool = pool
	if len(pool) == 0 {
		return
	}
	// NeedOld is ascending, so its ends bound the span the rows must cover.
	w0 := int(pool[0] >> 6)
	nw := int(pool[len(pool)-1]>>6) - w0 + 1
	s.readNeighborWords(ws, n, w0, nw)
	union := ws.nbWords[:nw]
	// Partial Fisher-Yates: draw random candidates until the budget or the
	// pool is exhausted. Every draw is made whether or not anyone holds the
	// id: the stream is shared by all nodes of the shard.
	for k := 0; k < len(pool) && budget > 0; k++ {
		j := k + rng.Intn(len(pool)-k)
		pool[k], pool[j] = pool[j], pool[k]
		id := pool[k]
		off := int(id) - w0<<6
		wi, bit := off>>6, uint64(1)<<uint(off&63)
		if union[wi]&bit == 0 || ws.seen.has(id) {
			continue // held by no reachable neighbor, or already asked for
		}
		sup, ni := s.pickSupplier(ws, n, nw, wi, bit, rng)
		if sup < 0 {
			continue
		}
		n.linkReqs[ni]++
		sh.requests = append(sh.requests, routedRequest{
			sup: sup,
			req: pullRequest{from: n.id, seg: id, nbIdx: ni},
		})
		budget--
	}
}

// readNeighborWords fills the worker's prefetch rows for node n over the
// availability words [w0, w0+nw). ws.nbWords starts with the union row;
// then, for every neighbor a prefetch request could go to — alive, not
// across an active partition, and in shared mode with outbound left (none
// of which changes during the plan phase) — in adjacency order, comes one
// row of its buffer's words, its adjacency slot going to ws.nbAdj. Unlike
// the planner's supplier list the rows are not capped at
// core.MaxSuppliers: a hub prefetches from any of its neighbors.
func (s *Sim) readNeighborWords(ws *workerScratch, n *nodeState, w0, nw int) {
	ws.nbAdj = ws.nbAdj[:0]
	words := slices.Grow(ws.nbWords[:0], nw)[:nw]
	clear(words)
	for ni, v := range s.g.Neighbors(n.id) {
		nb := s.nodes[v]
		if !nb.alive || s.blocked(n.id, v) || (s.cfg.SharedOutbound && nb.out.Available() < 1) {
			continue
		}
		ws.nbAdj = append(ws.nbAdj, int32(ni))
		words = slices.Grow(words, nw)[:len(words)+nw]
		row := words[len(words)-nw:]
		nb.buf.AvailWords(w0, row)
		for k, w := range row {
			words[k] |= w
		}
	}
	ws.nbWords = words
}

// pickSupplier chooses a uniformly random neighbor among the rows of
// readNeighborWords that holds the segment (bit of word wi) and whose link
// to n still has request capacity this period; -1 if none. The second
// return is the neighbor's adjacency slot. One reservoir draw is made per
// eligible neighbor, in adjacency order.
func (s *Sim) pickSupplier(ws *workerScratch, n *nodeState, nw, wi int, bit uint64, rng *rand.Rand) (overlay.NodeID, int32) {
	best, bestIdx := overlay.NodeID(-1), int32(-1)
	count := 0
	nbrs := s.g.Neighbors(n.id)
	for k, ni := range ws.nbAdj {
		if ws.nbWords[(k+1)*nw+wi]&bit == 0 {
			continue
		}
		v := nbrs[ni]
		if !s.cfg.SharedOutbound && int(n.linkGrants[ni]+n.linkReqs[ni]) >= s.linkCap(s.nodes[v]) {
			continue
		}
		count++
		if rng.Intn(count) == 0 {
			best, bestIdx = v, ni
		}
	}
	return best, bestIdx
}
