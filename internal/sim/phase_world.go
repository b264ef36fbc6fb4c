package sim

import (
	"slices"

	"gossipstream/internal/sim/engine"
)

// The world phases: everything around the plan/serve rounds — staggered
// arrivals, segment generation, budget refills, delivery, playback and
// churn. Refill and playback shard per-node work across the pool (the
// work is node-local and RNG-free, so the determinism contract holds
// trivially); the rest is serial by nature (single source, global
// directory) and cheap.

// phaseArrivals activates initial nodes whose staggered start time has
// come (the assembly of the session during warm-up).
func (s *Sim) phaseArrivals() {
	if s.tick > s.cfg.JoinSpreadTicks {
		return
	}
	for _, n := range s.nodes {
		if !n.alive && n.joinTick == 0 && n.startTick == s.tick {
			n.alive = true
		}
	}
}

// phaseGenerate lets the current source emit p·τ fresh segments.
func (s *Sim) phaseGenerate() {
	cur := s.tl.Current()
	if !cur.Open() {
		return
	}
	src := s.nodes[cur.Source]
	if !src.alive {
		return
	}
	for range PerTick {
		src.receive(s.nextGen)
		s.nextGen++
	}
}

// phaseRefill resets every alive node's per-period transfer budgets and
// per-link grant counters, and refreshes its alive-neighbor count (the
// denominator of the per-link rate). Sharded: all writes are node-local,
// neighbor reads are of the alive flag frozen by the churn phase.
func (s *Sim) phaseRefill() {
	n := len(s.nodes)
	shards := s.ensureShards(n)
	s.pool.Run(shards, func(_, shard int) {
		lo, hi := engine.ShardSpan(n, shard)
		for i := lo; i < hi; i++ {
			nd := s.nodes[i]
			if !nd.alive {
				continue
			}
			nd.in.Refill(Tau)
			nd.out.Refill(Tau)
			// Per-period link grant counters, one per adjacency slot
			// (adjacency lists mutate under churn between periods).
			deg := len(s.g.Neighbors(nd.id))
			nd.linkGrants = slices.Grow(nd.linkGrants[:0], deg)[:deg]
			clear(nd.linkGrants)
		}
	})
}

// phaseDeliver lands this tick's granted transfers (store-and-forward: a
// segment received in period t becomes visible to neighbors in t+1).
// Sharded: the commit step buckets deliveries by recipient shard, and a
// node's buffer is touched only by the worker owning its shard.
func (s *Sim) phaseDeliver() {
	shards := s.ensureShards(len(s.nodes))
	if s.obsDelivered != nil {
		// The classic substrate delivers every landed grant losslessly.
		var n int64
		for si := 0; si < shards; si++ {
			n += int64(len(s.shards[si].landed))
		}
		s.obsDelivered.Add(n)
	}
	s.pool.Run(shards, func(_, shard int) {
		for _, d := range s.shards[shard].landed {
			n := s.nodes[d.to]
			n.receive(d.seg)
			n.ledger.LandAll()
		}
	})
}

// phasePlayback advances every alive non-source node's playback state
// machine by one period and folds each cohort member's step into the
// measurement window, with the prepare-S2 condition. Sharded: playback
// state is node-local, Window.Step writes only the member's own ledger
// row, and the timeline snapshot is read-only.
func (s *Sim) phasePlayback() {
	sessions := s.sessions
	n := len(s.nodes)
	shards := s.ensureShards(n)
	s.pool.Run(shards, func(_, shard int) {
		lo, hi := engine.ShardSpan(n, shard)
		for i := lo; i < hi; i++ {
			nd := s.nodes[i]
			if !nd.alive || nd.isSource {
				continue
			}
			st := nd.Advance(nd.buf, sessions, s.cfg.Qs)
			if k := s.win.Slot(nd.id); k >= 0 {
				prepared := s.win.Preparing(k) && nd.PreparedSession(nd.buf, sessions, s.cfg.Qs) == s.newSessionIdx
				s.win.Step(k, s.tick, st, prepared)
			}
		}
	})
}

// phaseChurn resolves and applies the tick's baseline (or burst) churn
// (Resolver.Churn). Running at tick end, after playback: departures and
// joins take effect for the next period's refill and planning.
func (s *Sim) phaseChurn() {
	if d := s.resolver.Churn(s.tick); d != nil {
		DirectiveStep(d, d.Kind.String(), s.net, s.trace, s.obsEvents, 0)
		s.applyMembership(d)
	}
}
