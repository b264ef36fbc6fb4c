package runtime

import (
	"maps"
	"sort"

	"gossipstream/internal/overlay"
	"gossipstream/internal/sim"
)

// Shard re-ownership after a worker fail-stop. The coordinator declares
// a shard dead (internal/cluster's failure detector), then asks the
// runner to re-resolve that shard's peers from its merged status view:
// plain listeners are respawned on surviving shards — each anchored at
// its neighborhood's playback frontier, exactly like a churn joiner —
// while role-holders (old sources) leave the overlay with their edges
// repaired, and a live source dies through the ordinary crash-switch
// machinery. The result is a batch of Directives broadcast on the same
// sequenced, authenticated channel as every scripted event, so every
// surviving process replays the identical re-mapping.

// RespawnSpec is one reassigned peer: the surviving shard that adopts
// it and the full join wiring it respawns with. The JoinSpec restates
// the peer's original bandwidth profile (from the profile ledger every
// process keeps) — no RNG draw happens at respawn time.
type RespawnSpec struct {
	Owner int
	Join  sim.JoinSpec
}

// maxRespawnsPerDirective chunks a large reassignment across several
// directives so each stays well under the control frame's payload
// bound (maxWireCtrl).
const maxRespawnsPerDirective = 64

// respawnSeedSalt separates a respawned peer's RNG stream from its
// first incarnation's: the old goroutine may have consumed any prefix
// of the original stream before the crash.
const respawnSeedSalt = 0x0fa1_10ff

// ResolveFailover re-resolves a dead shard's peers into reassignment
// directives (coordinator side). survivors are the shards still in the
// run, the resolving shard included; orphaned listeners are distributed
// round-robin across them in ascending id order. srcDied reports that
// the dead shard owned the live source — the caller must follow up
// with a crash switch (ResolveFailureSwitch or the pending stop-source
// resolution), which handles that node's departure itself.
func (r *Runner) ResolveFailover(deadShard int, survivors []int) (dirs []*Directive, srcDied bool) {
	order := append([]int(nil), survivors...)
	sort.Ints(order)
	cur := overlay.NodeID(r.tl.Current().Source)

	var lost, orphans []overlay.NodeID
	for i := 0; i < r.g.N(); i++ {
		id := overlay.NodeID(i)
		if !r.dir.IsAlive(id) || r.ownerOf(id) != deadShard {
			continue
		}
		switch {
		case id == cur:
			srcDied = true
		case r.roles[id]:
			// An ex-source died with its shard: its session history is
			// not reconstructible, so it leaves like a churn victim.
			lost = append(lost, id)
		default:
			orphans = append(orphans, id)
		}
	}

	if len(lost) > 0 {
		d := &Directive{Directive: sim.Directive{Kind: sim.DirMembership, Tick: r.tick, Leaves: lost}, Resolved: true}
		for _, id := range lost {
			d.Repair = append(d.Repair, r.dir.Leave(id)...)
		}
		dirs = append(dirs, d)
	}

	var d *Directive
	for i, id := range orphans {
		if d == nil {
			d = &Directive{Directive: sim.Directive{Kind: DirReassign, Tick: r.tick}, DeadShard: deadShard, Resolved: true}
		}
		d.Respawns = append(d.Respawns, RespawnSpec{
			Owner: order[i%len(order)],
			Join:  r.respawnSpec(id),
		})
		if len(d.Respawns) >= maxRespawnsPerDirective {
			dirs = append(dirs, d)
			d = nil
		}
	}
	if d != nil {
		dirs = append(dirs, d)
	}
	return dirs, srcDied
}

// respawnSpec rebuilds one orphan's join wiring: current adjacency from
// the graph, the playback anchor from its neighbors' reported frontier
// (the resolver's churn-join rule), and the bandwidth profile restated
// from the ledger.
func (r *Runner) respawnSpec(id overlay.NodeID) sim.JoinSpec {
	neighbors := append([]overlay.NodeID(nil), r.g.Neighbors(id)...)
	anchor := r.resolver.JoinAnchor(neighbors)
	if anchor == 0 {
		// No live neighbor report (an isolated corner): start at the
		// current session's first segment.
		anchor = r.tl.Current().Begin
	}
	return sim.JoinSpec{ID: id, Neighbors: neighbors, Anchor: anchor, Profile: r.profile[id]}
}

// applyReassign executes one reassignment on any shard: record the
// ownership overrides (every process must agree on the new routing),
// then respawn the peers this shard adopted. The node is already in
// the graph, so unlike a join there is no structural replay and the
// Resolved flag plays no role.
func (r *Runner) applyReassign(d *Directive) {
	owner := make(map[overlay.NodeID]int)
	if m := r.owner.Load(); m != nil {
		owner = maps.Clone(*m)
	}
	for _, rs := range d.Respawns {
		owner[rs.Join.ID] = rs.Owner
	}
	r.owner.Store(&owner)
	changed := false
	for _, rs := range d.Respawns {
		js := rs.Join
		if rs.Owner != r.shard {
			continue
		}
		if h, ok := r.peers[js.ID]; ok && h.running {
			continue // already hosted here (a replayed directive)
		}
		if err := r.spawn(r.joinSpawn(js, respawnSeedSalt)); err != nil {
			r.err = err
			return
		}
		changed = true
	}
	if changed {
		r.refreshNeighbors()
	}
}

// ResolveFailureSwitch synthesizes and resolves an unscripted crash
// switch — the live source's worker died, so the stream must continue
// from a surviving successor. The closing segment id is estimated from
// the cohort's reported high-water mark, exactly like a scripted failure
// switch.
func (r *Runner) ResolveFailureSwitch() (*Directive, error) {
	d, _, err := r.ResolveEvent(sim.CrashAt(r.tick, -1))
	return d, err
}

// Abort stops every owned peer and the transport without finalizing a
// result — the fail-stop path of a chaos-killed or fenced agent.
func (r *Runner) Abort() { r.shutdown() }
