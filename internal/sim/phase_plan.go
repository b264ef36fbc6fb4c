package sim

import (
	"slices"

	"gossipstream/internal/bitfield"
	"gossipstream/internal/core"
	"gossipstream/internal/overlay"
	"gossipstream/internal/sim/engine"
)

// The plan phase runs every alive non-source node's scheduler and routes
// the resulting pull requests to their suppliers. Nodes are sharded on
// the engine grid; each node plans with a dedicated RNG stream keyed by
// its id, and each shard buffers its requests in a per-shard outbox,
// stably bucketed by destination shard; a second pass, sharded over
// suppliers, gathers each supplier shard's slice of every outbox in
// source-shard order. A supplier's queue is therefore its requests in
// (source shard, planning order) — a supplier's requests within one
// outbox keep their planning order (stable bucketing) and outboxes are
// visited in shard order — so the queue contents are identical at any
// worker count.

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
	for s.round = 0; s.round < ServeRounds; s.round++ {
		s.granted = false
		s.sched.Run() // plan, then serve
		if !s.granted && s.round > 0 {
			break // no grants: further rounds cannot progress
		}
	}
}

// planRound is the planning half of one scheduling round. On round 0 it
// also snapshots each node's plan rows (its reachable neighbors) for the
// period and accounts the buffer-map exchange: each
// alive node receives one 620-bit map per alive neighbor per period
// (retry rounds reuse the same maps).
//
// A retry round does not re-plan a node whose last plan this period
// routed nothing (nodeState.idle): it would route nothing again. Such a
// node got no grant, so its buffer, marks, need windows and inbound
// budget are as they were, and its rows' headroom can only have shrunk —
// supplier budgets are refunded at most what the round spent, and its
// links' grant counts move only with its own grants. Fewer suppliers
// keep an empty plan empty (core.Algorithm), and a prefetch that found
// no held pool id finds none among fewer rows. The skipped plan would
// have drawn only from its own stream (planNode), so skipping it draws
// nothing.
func (s *Sim) planRound() {
	n := len(s.nodes)
	shards := s.ensureShards(n)
	round := s.round
	s.pool.Run(shards, func(worker, shard int) {
		ws := s.workers[worker]
		sh := &s.shards[shard]
		sh.requests = sh.requests[:0]
		sh.controlBits = 0
		if round == 0 {
			// New period: the plan-view arenas are rebuilt from scratch
			// (buildView repopulates them for every planning node below).
			sh.rowArena = sh.rowArena[:0]
			sh.adjArena = sh.adjArena[:0]
		}
		wire := int64(bitfield.WireBits(BufferCap))
		lo, hi := engine.ShardSpan(n, shard)
		for i := lo; i < hi; i++ {
			nd := s.nodes[i]
			if !nd.alive {
				continue
			}
			// Map exchange cost: nd receives its alive neighbors' maps
			// (maps do not cross an active partition).
			if s.win.Active() && round == 0 {
				for _, v := range s.g.Neighbors(nd.id) {
					if s.nodes[v].alive && !s.blocked(nd.id, v) {
						sh.controlBits += wire
					}
				}
			}
			if nd.isSource || nd.profile.In <= 0 || nd.in.Available() < 1 {
				continue
			}
			if round > 0 && nd.idle {
				continue
			}
			routed := len(sh.requests)
			s.planNode(ws, sh, nd, round)
			nd.idle = len(sh.requests) == routed
		}
		// Stable bucketing by destination shard: a supplier's requests
		// keep their planning order through the gather below.
		sh.bucketRequests(shards)
	})
	// Scalar reduce in shard order.
	for si := 0; si < shards; si++ {
		sh := &s.shards[si]
		s.win.AddBits(sh.controlBits, 0)
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
				s.incoming[rr.sup] = append(s.incoming[rr.sup], rr.Request)
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

// planNode runs one node's planning step (peercore.go) for the round and
// queues its requests in the shard outbox. It reports whether the
// scheduler ran (Planner.Plan reported true), which is when prefetch
// runs too unless it is disabled.
//
// Prefetch draws from the node's own (tick, round, node id) stream: the
// worker's generator restarts on it here, so a node's requests depend on
// nothing else in its shard — not on which nodes the worker planned
// before it, nor on how many draws they made.
func (s *Sim) planNode(ws *workerScratch, sh *shardScratch, n *nodeState, round int) bool {
	if round == 0 {
		s.buildView(sh, n)
	}
	// Request headroom per row for this round. A neighbor that signalled
	// "busy" — exhausted aggregate outbound in shared mode, an exhausted
	// link to this node in per-link mode — neither supplies the plan nor
	// takes prefetch.
	for k := range n.view {
		r := &n.view[k]
		nb := s.nodes[r.ID]
		switch {
		case !s.cfg.SharedOutbound:
			r.Headroom = s.linkCap(nb) - int(n.linkGrants[n.viewAdj[k]])
		case nb.out.Available() < 1:
			r.Headroom = 0
		default:
			r.Headroom = Unbounded
		}
	}
	// In flight: segments granted in an earlier round of this period, or
	// still travelling under the netmodel.
	if !ws.Plan(&n.Playback, n.buf, s.sessions, n.ledger.InFlight(), n.profile.In, n.view) {
		return false
	}
	s.route(sh, n, ws.Pulls)
	// The serve phase, not the plan, spends the inbound budget.
	rng := ws.stream(engine.SeedFor(s.cfg.Seed, rngPlan, s.tick, round, int(n.id)))
	ws.Prefetch(n.view, n.in.Available()-len(ws.plan.Requests), rng)
	s.route(sh, n, ws.Pulls)
	return true
}

// route queues pulls in the shard outbox, addressed to their rows' nodes.
func (s *Sim) route(sh *shardScratch, n *nodeState, pulls []Pull) {
	for _, pu := range pulls {
		sh.requests = append(sh.requests, routedRequest{
			sup:     overlay.NodeID(n.view[pu.Row].ID),
			Request: Request{From: n.id, Seg: pu.Seg, Link: n.viewAdj[pu.Row]},
		})
	}
}

// buildView snapshots the node's per-period plan rows: its alive
// neighbors not cut off by an active partition, in adjacency order, with
// their rates and advertised marks (and their adjacency slots beside).
// Built once per period — rows, rates and marks only change at period
// boundaries; each round refreshes the rows' headroom.
//
// The rows live as spans of the shard's arenas (the node fields are
// windows into them), appended shard-locally by the worker that owns the
// node — so the arena layout, like the view contents, is a pure function
// of shard state and the determinism contract is untouched.
func (s *Sim) buildView(sh *shardScratch, n *nodeState) {
	base := len(sh.rowArena)
	for ni, v := range s.g.Neighbors(n.id) {
		nb := s.nodes[v]
		if !nb.alive || s.blocked(n.id, v) {
			// Dead — or unreachable across an active partition: no maps,
			// no requests, no supply until the partition heals.
			continue
		}
		sh.rowArena = append(sh.rowArena, Row{
			Supplier: core.Supplier{
				ID:   core.SupplierID(v),
				Rate: LinkRate(nb.out.Rate(), s.cfg.SharedOutbound),
				View: nb.buf,
			},
			MaxSeen: nb.buf.MaxSeen(),
		})
		sh.adjArena = append(sh.adjArena, int32(ni))
	}
	n.view = sh.rowArena[base:len(sh.rowArena):len(sh.rowArena)]
	n.viewAdj = sh.adjArena[base:len(sh.adjArena):len(sh.adjArena)]
}
