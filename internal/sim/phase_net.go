package sim

import (
	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/sim/engine"
)

// The transit phase: the netmodel transport's landing step, replacing
// the instant deliver phase when Config.Net is set. The serve commit
// injects every granted segment as an in-flight message (see
// serveRound); transit drains the messages whose continuous arrival
// timestamp falls within the current period, in timestamp order, draws
// their loss fate, and lands the survivors — so two grants issued the
// same tick arrive in their true sub-tick order, and the delay metrics
// resolve below one period.
//
// Sharded on the destination grid: each shard owns its own message heap
// inside the model, buffer writes are destination-local, and the loss
// draws come from a fresh rngNet stream per (tick, shard) — so the
// in-flight message state obeys the same shard/merge determinism
// contract as every other phase, and a run with the transport enabled
// is still a pure function of its seed at any worker count. The
// per-shard delivery/loss counters merge serially in shard order.

// blocked reports whether the link between two nodes is severed by an
// active partition (always false without the netmodel transport). The
// planning phases consult it so buffer maps and requests stop crossing
// the boundary, exactly like the data messages transit drops.
func (s *Sim) blocked(a, b overlay.NodeID) bool {
	return s.net != nil && s.net.Blocked(a, b)
}

// phaseTransit lands this tick's due messages: losses (drawn per
// message) and partition-crossing messages are dropped — freeing the
// segment for a re-request and recording it as lost — and the rest
// reach their destination's buffer, store-and-forward, exactly when the
// delay model says they do.
func (s *Sim) phaseTransit() {
	n := len(s.nodes)
	shards := s.ensureShards(n)
	popped := 0
	s.pool.Run(shards, func(worker, shard int) {
		sh := &s.shards[shard]
		sh.netDelivered, sh.netLost, sh.netDelayMS, sh.netPopped = 0, 0, 0, 0
		sh.netSevered, sh.netEvap = 0, 0
		rng := s.workers[worker].stream(engine.SeedFor(s.cfg.Seed, rngNet, s.tick, 0, shard))
		loss := s.net.LossProb(s.tick)
		sh.netPopped = s.net.PopDue(shard, s.tick, func(msg netmodel.Message) {
			to := s.nodes[msg.To]
			if !to.alive {
				// The destination left the overlay mid-flight: the message
				// evaporates without loss accounting (nobody re-requests).
				to.ledger.Land(msg.Seg)
				sh.netEvap++
				return
			}
			// Severed messages skip the loss draw; both branches drop the
			// message the same way, they only differ in which
			// conservation bucket counts it.
			if s.blocked(msg.From, msg.To) {
				to.ledger.Lose(msg.Seg, s.tick)
				sh.netSevered++
				return
			}
			if loss > 0 && rng.Float64() < loss {
				to.ledger.Lose(msg.Seg, s.tick)
				sh.netLost++
				return
			}
			to.receive(msg.Seg)
			to.ledger.Land(msg.Seg)
			sh.netDelivered++
			// The true link delay, sub-period resolution.
			sh.netDelayMS += msg.DelayMS(Tau)
		})
	})
	// Serial merge in shard order: window accounting, the run-level
	// conservation ledger, and the in-flight gauge. The window's NetLost
	// keeps counting losses and severs together (its historical meaning);
	// the ledger splits them.
	for si := 0; si < shards; si++ {
		sh := &s.shards[si]
		popped += sh.netPopped
		s.obsDelivered.Add(sh.netDelivered)
		s.obsLost.Add(sh.netLost + sh.netSevered)
		s.audDelivered += sh.netDelivered
		s.audLost += sh.netLost
		s.audSevered += sh.netSevered
		s.audEvap += sh.netEvap
		if s.win.Active() {
			s.win.AddNet(sh.netDelivered, sh.netLost+sh.netSevered, sh.netDelayMS)
		}
	}
	s.net.SettleDelivered(popped)
}
