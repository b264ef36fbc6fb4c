package runtime

import (
	"fmt"
	"time"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/netmodel"
	"gossipstream/internal/obs"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim"
)

// The resolve/apply split: every scenario event is resolved — all
// nondeterministic choices made explicit (successor picks, closing
// segment ids, churn victims, join wiring, partition seeds) — into a
// Directive, then applied. A single-process run resolves and applies
// back to back; a multi-process run resolves once at the coordinator
// and applies the broadcast Directive on every shard, so every process
// makes the same decisions without sharing memory or RNG state. The
// Directive is the unit the cluster control plane retries until
// acknowledged.

// DirKind enumerates resolved directives.
type DirKind uint8

const (
	// DirSwitch executes a resolved source handoff (planned or crash).
	DirSwitch DirKind = iota + 1
	// DirStopSource closes the current source's open session (targeted
	// at the shard owning it; the ack carries the closing segment id).
	DirStopSource
	// DirDemote returns a resolved ex-source to listener duty.
	DirDemote
	// DirMeasure closes the open window and opens a plain measurement
	// window of Ticks periods.
	DirMeasure
	// DirMembership applies one resolved membership step: churn leaves
	// with their repair edges, and joins with their full wiring.
	DirMembership
	// DirBandwidth scales every listener's bandwidth by Factor.
	DirBandwidth
	// DirLatency scales the policy's latency by Factor.
	DirLatency
	// DirLoss starts a loss burst of probability Prob until tick Until.
	DirLoss
	// DirPartition splits the policy's reachability with the resolved
	// Seed.
	DirPartition
	// DirHeal lifts the partition.
	DirHeal
	// DirFinish ends the run (coordinator-initiated early exit).
	DirFinish
	// DirReassign folds a dead shard's orphaned peers into survivors:
	// every process records the ownership overrides, and the new owners
	// respawn their peers anchored at the neighborhood frontier.
	DirReassign
)

// String implements fmt.Stringer.
func (k DirKind) String() string {
	switch k {
	case DirSwitch:
		return "switch"
	case DirStopSource:
		return "stop-source"
	case DirDemote:
		return "demote"
	case DirMeasure:
		return "measure"
	case DirMembership:
		return "membership"
	case DirBandwidth:
		return "bandwidth"
	case DirLatency:
		return "latency"
	case DirLoss:
		return "loss"
	case DirPartition:
		return "partition"
	case DirHeal:
		return "heal"
	case DirFinish:
		return "finish"
	case DirReassign:
		return "reassign"
	}
	return "directive(?)"
}

// JoinSpec is one resolved joiner: the id the membership walk assigned,
// the wiring it chose, the playback anchor, and the bandwidth profile
// drawn for it — everything a shard needs to spawn the peer without
// its own RNG draw.
type JoinSpec struct {
	ID         overlay.NodeID
	Neighbors  []overlay.NodeID
	Anchor     segment.ID
	SessionIdx int
	Known      int
	ProfIn     float64
	ProfOut    float64
}

// Directive is one resolved control-plane command. Fields are a union
// over kinds; unused fields are zero.
type Directive struct {
	Kind DirKind
	Tick int // coordinator tick the directive was resolved at

	// DirSwitch / DirStopSource / DirDemote.
	Old     overlay.NodeID
	New     overlay.NodeID
	S1End   segment.ID
	Horizon int
	Failure bool
	Node    overlay.NodeID
	Anchor  segment.ID

	// DirMeasure / DirLoss.
	Ticks int
	Until int

	// DirBandwidth / DirLatency / DirLoss / DirPartition.
	Factor float64
	Prob   float64
	Frac   float64
	ByPing bool
	Seed   int64

	// DirMembership.
	Leaves []overlay.NodeID
	Repair [][2]overlay.NodeID
	Joins  []JoinSpec

	// DirReassign.
	DeadShard int
	Respawns  []RespawnSpec

	// Resolved marks a directive applied on the process that resolved
	// it: the membership directory already mutated the graph during
	// resolution, so apply must not replay the structural mutations. A
	// directive shipped to another process arrives with Resolved false.
	Resolved bool
}

// NodeStatus is one node's per-period state as shipped from a shard to
// the coordinator — the failure-detector knowledge event resolution
// runs on (crash truncation points, demote/join anchors, successor
// eligibility).
type NodeStatus struct {
	ID       overlay.NodeID
	Alive    bool
	IsSource bool
	MaxSeen  segment.ID
	WindowLo segment.ID
}

// owns reports whether this runner's shard hosts the node's goroutine.
func (r *Runner) owns(id overlay.NodeID) bool {
	return r.shards <= 1 || r.ownerOf(id) == r.shard
}

// ownerOf names the shard hosting a node: a failover reassignment
// override when one exists, the id-mod-shards rule otherwise.
func (r *Runner) ownerOf(id overlay.NodeID) int {
	if s, ok := r.owner[id]; ok {
		return s
	}
	return int(id) % r.shards
}

// OwnerOf exposes the ownership rule to the cluster coordinator (the
// stop-source call and the failover machinery route by it).
func (r *Runner) OwnerOf(id overlay.NodeID) int { return r.ownerOf(id) }

// Shard and Shards expose the runner's slice of the population.
func (r *Runner) Shard() int  { return r.shard }
func (r *Runner) Shards() int { return r.shards }

// sourceEligible reports whether a node can take (or crash-survive as)
// a listener role in resolution decisions: running, arrived, never a
// source. Owned nodes answer from the live handle; remote nodes from
// the merged status map plus the coordinator's own death/role ledger.
func (r *Runner) sourceEligible(id overlay.NodeID) bool {
	if h, ok := r.peers[id]; ok {
		return h.running && h.active && !h.isSource
	}
	if r.shards <= 1 || r.dead[id] || r.roles[id] {
		return false
	}
	rep, ok := r.lastRep[id]
	return ok && rep.alive && !rep.isSource
}

// leaveEligible is the churn victim predicate (a not-yet-arrived peer
// is still a valid victim, matching the simulator).
func (r *Runner) leaveEligible(id overlay.NodeID) bool {
	if h, ok := r.peers[id]; ok {
		return h.running && !h.isSource
	}
	if r.shards <= 1 || r.dead[id] || r.roles[id] {
		return false
	}
	rep, ok := r.lastRep[id]
	return ok && rep.alive
}

// MergeStatus folds a shard's per-node status into the coordinator's
// global view (synthetic reports alongside the locally collected ones).
func (r *Runner) MergeStatus(sts []NodeStatus) {
	for _, st := range sts {
		if r.owns(st.ID) {
			continue // local reports are fresher
		}
		r.lastRep[st.ID] = report{
			id:       st.ID,
			alive:    st.Alive,
			isSource: st.IsSource,
			maxSeen:  st.MaxSeen,
			windowLo: st.WindowLo,
		}
	}
}

// ShardStatus snapshots every owned running peer's last report for the
// coordinator.
func (r *Runner) ShardStatus() []NodeStatus {
	sts := make([]NodeStatus, 0, len(r.peers))
	for id, h := range r.peers {
		if !h.running {
			continue
		}
		rep, ok := r.lastRep[id]
		if !ok {
			continue
		}
		sts = append(sts, NodeStatus{
			ID: id, Alive: rep.alive, IsSource: rep.isSource,
			MaxSeen: rep.maxSeen, WindowLo: rep.windowLo,
		})
	}
	return sts
}

// ---- Resolution (coordinator side) ----

// ResolveEvent resolves one timeline event into a directive. For a
// planned switch it needs the old source's closing segment id: when the
// old source is owned the stop round trip runs inline; when it is
// remote, ResolveEvent returns needStop=true and the caller must obtain
// S1End (a DirStopSource round trip to the owning shard) and finish
// with ResolveSwitch.
func (r *Runner) ResolveEvent(ev sim.Event) (d *Directive, needStop *Directive, err error) {
	switch ev.Kind {
	case sim.EvSwitchSource:
		old, to, err := r.resolveSwitchTarget(ev)
		if err != nil {
			return nil, nil, err
		}
		if !ev.Failure && !r.owns(old) {
			return nil, &Directive{Kind: DirStopSource, Tick: r.tick, Old: old, New: to}, nil
		}
		var s1End segment.ID
		if ev.Failure {
			s1End = r.crashS1End()
		} else {
			s1End, _ = r.StopSource(old)
		}
		return r.ResolveSwitch(ev, old, to, s1End), nil, nil
	case sim.EvMeasureWindow:
		return &Directive{Kind: DirMeasure, Tick: r.tick, Ticks: ev.Ticks}, nil, nil
	case sim.EvChurnBurst:
		// Resolution-local: churn is resolved per tick at the
		// coordinator, so the burst bounds never need to travel.
		r.burst = &sim.ChurnConfig{LeaveFraction: ev.Leave, JoinFraction: ev.Join}
		r.burstUntil = r.tick + ev.Ticks
		return nil, nil, nil
	case sim.EvFlashCrowd:
		return r.resolveFlashCrowd(ev), nil, nil
	case sim.EvBandwidthShift:
		return &Directive{Kind: DirBandwidth, Tick: r.tick, Factor: ev.Factor}, nil, nil
	case sim.EvLatencyShift:
		return &Directive{Kind: DirLatency, Tick: r.tick, Factor: ev.Factor}, nil, nil
	case sim.EvLossBurst:
		return &Directive{Kind: DirLoss, Tick: r.tick, Prob: ev.Prob, Until: r.tick + ev.Ticks}, nil, nil
	case sim.EvPartition:
		return &Directive{Kind: DirPartition, Tick: r.tick, Frac: ev.Frac, ByPing: ev.ByPing, Seed: r.rng.Int63()}, nil, nil
	case sim.EvHeal:
		return &Directive{Kind: DirHeal, Tick: r.tick}, nil, nil
	case sim.EvDemoteSource:
		return r.resolveDemote(ev)
	}
	return nil, nil, fmt.Errorf("runtime: unknown event kind %v at tick %d", ev.Kind, ev.Tick)
}

// resolveSwitchTarget picks the handoff pair: the current source and a
// resolved successor (the pinned target when eligible, else a uniform
// draw over never-source active peers).
func (r *Runner) resolveSwitchTarget(ev sim.Event) (old, to overlay.NodeID, err error) {
	cur := r.timeline[len(r.timeline)-1]
	old = overlay.NodeID(cur.Source)
	to = ev.To
	if to >= 0 && !r.sourceEligible(to) {
		to = -1 // pinned target unusable: fall back to the random pick
	}
	if to < 0 {
		to = r.pickNewSource(old)
	}
	if to < 0 {
		return old, -1, fmt.Errorf("runtime: switch at tick %d: no eligible new source (every active peer is or was a source)", r.tick)
	}
	return old, to, nil
}

// crashS1End truncates the stream at the highest id any active listener
// reported holding — the membership service's best knowledge, one
// period stale like any failure detector.
func (r *Runner) crashS1End() segment.ID {
	s1End := r.timeline[len(r.timeline)-1].Begin - 1
	for id, rep := range r.lastRep {
		if r.sourceEligible(id) && rep.maxSeen > s1End {
			s1End = rep.maxSeen
		}
	}
	return s1End
}

// StopSource runs the local control round trip closing an owned
// source's session; ok is false when the node is not an owned running
// peer.
func (r *Runner) StopSource(id overlay.NodeID) (segment.ID, bool) {
	h, ok := r.peers[id]
	if !ok || !h.running {
		return segment.None, false
	}
	reply := make(chan segment.ID, 1)
	h.p.ctrlCh <- ctrlMsg{kind: ctrlStopSource, reply: reply}
	return <-reply, true
}

// ResolveSwitch finishes a switch resolution once the closing segment
// id is known. A crash additionally resolves the membership repair
// (the directory draw happens here, once, at the resolver).
func (r *Runner) ResolveSwitch(ev sim.Event, old, to overlay.NodeID, s1End segment.ID) *Directive {
	d := &Directive{
		Kind: DirSwitch, Tick: r.tick,
		Old: old, New: to, S1End: s1End,
		Failure: ev.Failure, Resolved: true,
	}
	if ev.Failure {
		d.Repair = r.dir.Leave(old)
		r.dead[old] = true
	}
	d.Horizon = ev.Horizon
	if d.Horizon <= 0 {
		d.Horizon = r.cfg.HorizonTicks
	}
	return d
}

// resolveDemote validates the demote target and resolves its rejoin
// anchor from its neighbors' reported playback positions.
func (r *Runner) resolveDemote(ev sim.Event) (*Directive, *Directive, error) {
	id := ev.To
	if id < 0 {
		id = r.lastRetired
	}
	known := false
	if id >= 0 {
		if _, ok := r.peers[id]; ok {
			known = true
		} else if _, ok := r.lastRep[id]; ok && r.shards > 1 {
			known = true
		}
	}
	running := false
	if h, ok := r.peers[id]; ok {
		running = h.running
	} else if known {
		running = !r.dead[id]
	}
	switch {
	case id < 0 || !known:
		return nil, nil, fmt.Errorf("runtime: demote at tick %d: no ex-source to demote", r.tick)
	case !r.roles[id]:
		return nil, nil, fmt.Errorf("runtime: demote at tick %d: node %d never held the source role or was already demoted", r.tick, id)
	case overlay.NodeID(r.timeline[len(r.timeline)-1].Source) == id && r.timeline[len(r.timeline)-1].Open():
		return nil, nil, fmt.Errorf("runtime: demote at tick %d: node %d is the current source", r.tick, id)
	case !running:
		return nil, nil, fmt.Errorf("runtime: demote at tick %d: ex-source %d is dead", r.tick, id)
	}
	anchor := segment.ID(0)
	for _, v := range r.g.Neighbors(id) {
		if rep, ok := r.lastRep[v]; ok && rep.alive {
			if rep.windowLo > anchor {
				anchor = rep.windowLo
			}
		}
	}
	return &Directive{Kind: DirDemote, Tick: r.tick, Node: id, Anchor: anchor, Resolved: true}, nil, nil
}

// resolveFlashCrowd resolves a batch of fresh joiners through the
// membership directory; like the simulator's crowd members they anchor
// at the current session's beginning (bounded by the backlog cap).
func (r *Runner) resolveFlashCrowd(ev sim.Event) *Directive {
	curIdx := len(r.timeline) - 1
	anchor := r.timeline[curIdx].Begin
	if ev.Backlog > 0 {
		// The stream head, as last reported by the current source.
		if rep, ok := r.lastRep[overlay.NodeID(r.timeline[curIdx].Source)]; ok {
			if a := rep.maxSeen + 1 - segment.ID(ev.Backlog); a > anchor {
				anchor = a
			}
		}
	}
	d := &Directive{Kind: DirMembership, Tick: r.tick, Resolved: true}
	for i := 0; i < ev.Count; i++ {
		d.Joins = append(d.Joins, r.resolveJoin(anchor, curIdx, curIdx+1))
	}
	return d
}

// resolveJoin draws one joiner's wiring and profile (the resolver-only
// RNG consumption).
func (r *Runner) resolveJoin(anchor segment.ID, sessionIdx, known int) JoinSpec {
	id, neighbors := r.dir.Join()
	return JoinSpec{
		ID:         id,
		Neighbors:  append([]overlay.NodeID(nil), neighbors...),
		Anchor:     anchor,
		SessionIdx: sessionIdx,
		Known:      known,
		ProfIn:     bandwidth.DrawRate(r.churnRNG),
		ProfOut:    bandwidth.DrawRate(r.churnRNG),
	}
}

// resolveChurn resolves the baseline (or burst-overridden) churn of the
// period TickShard just completed — the simulator's churn phase, at
// tick end — into one membership directive; nil when nothing changes.
func (r *Runner) resolveChurn() *Directive {
	tick := r.tick - 1 // TickShard already advanced to the next period
	cc := r.cfg.Churn
	if r.burst != nil {
		if tick < r.burstUntil {
			cc = r.burst
		} else {
			r.burst = nil
		}
	}
	if cc == nil {
		return nil
	}
	alive := r.dir.AliveCount()
	d := &Directive{Kind: DirMembership, Tick: tick, Resolved: true}
	leaves := int(cc.LeaveFraction * float64(alive))
	curSrc := overlay.NodeID(r.timeline[len(r.timeline)-1].Source)
	for i := 0; i < leaves; i++ {
		victim := r.dir.RandomAlive(curSrc, r.lastRetired)
		if victim < 0 {
			break
		}
		if !r.leaveEligible(victim) {
			continue
		}
		repaired := r.dir.Leave(victim)
		r.dead[victim] = true
		d.Leaves = append(d.Leaves, victim)
		d.Repair = append(d.Repair, repaired...)
	}
	joins := int(cc.JoinFraction * float64(alive))
	for i := 0; i < joins; i++ {
		// "A new joining node ... starts its media playback by following
		// its neighbors' current steps" (Section 5.4). The anchor draw
		// needs the joiner's wiring, so Join runs first and the spec is
		// assembled from its result.
		id, neighbors := r.dir.Join()
		anchor := segment.ID(0)
		for _, v := range neighbors {
			if rep, ok := r.lastRep[v]; ok && rep.alive && rep.windowLo > anchor {
				anchor = rep.windowLo
			}
		}
		idx, known := 0, 1
		for si, s := range r.timeline {
			if s.Contains(anchor) {
				idx, known = si, si+1
			}
		}
		d.Joins = append(d.Joins, JoinSpec{
			ID:         id,
			Neighbors:  append([]overlay.NodeID(nil), neighbors...),
			Anchor:     anchor,
			SessionIdx: idx,
			Known:      known,
			ProfIn:     bandwidth.DrawRate(r.churnRNG),
			ProfOut:    bandwidth.DrawRate(r.churnRNG),
		})
	}
	if len(d.Leaves) == 0 && len(d.Joins) == 0 {
		return nil
	}
	return d
}

// ---- Application (every shard) ----

// Apply executes one resolved directive against this shard: structural
// graph mutations are replayed when the directive came from another
// process (Resolved false), peer-facing actions run for owned nodes
// only, and window bookkeeping runs everywhere so each shard's windows
// line up by index for the merge.
func (r *Runner) Apply(d *Directive) error {
	if ob := r.obs; ob != nil {
		ob.events.Inc()
		if ob.trace != nil {
			te := obs.TraceEvent{T: obs.EvEvent, Tick: r.tick, Kind: d.Kind.String()}
			if r.shards > 1 {
				te.Shard = r.shard
			}
			switch d.Kind {
			case DirSwitch:
				te.Node = obs.P(int64(d.Old))
				te.To = obs.P(int64(d.New))
			case DirDemote:
				te.Node = obs.P(int64(d.Node))
			}
			ob.trace.Emit(te)
			switch d.Kind {
			case DirPartition:
				ob.trace.Emit(obs.TraceEvent{T: obs.EvPartition, Tick: r.tick, Kind: "sever"})
			case DirHeal:
				ob.trace.Emit(obs.TraceEvent{T: obs.EvPartition, Tick: r.tick, Kind: "heal"})
			}
		}
	}
	switch d.Kind {
	case DirSwitch:
		r.applySwitchDirective(d)
	case DirStopSource:
		// Targeted resolution helper; the caller (cluster agent) uses
		// StopSource directly for the reply. Applying it standalone is a
		// no-op by design.
	case DirDemote:
		r.applyDemoteDirective(d)
	case DirMeasure:
		r.endWindow(true)
		r.startWindow(false, d.Ticks, false)
	case DirMembership:
		r.applyMembership(d)
	case DirBandwidth:
		r.bwFactor = d.Factor
		for _, h := range r.peers {
			if h.running {
				h.p.ctrlCh <- ctrlMsg{kind: ctrlBandwidth, factor: d.Factor}
			}
		}
	case DirLatency:
		r.policy.mutate(func(m *netmodel.Model) { m.SetLatencyFactor(d.Factor) })
	case DirLoss:
		r.policy.mutate(func(m *netmodel.Model) { m.SetLossBurst(d.Prob, d.Until) })
	case DirPartition:
		r.policy.mutate(func(m *netmodel.Model) {
			if d.ByPing {
				m.PartitionByPing(d.Frac, d.Seed)
			} else {
				m.Partition(d.Frac, d.Seed)
			}
		})
	case DirHeal:
		r.policy.mutate(func(m *netmodel.Model) { m.Heal() })
	case DirFinish:
		// Handled by the driving loop (cluster agent); nothing to apply.
	case DirReassign:
		r.applyReassign(d)
	default:
		return fmt.Errorf("runtime: unknown directive kind %d", d.Kind)
	}
	return r.err
}

// applySwitchDirective executes one resolved source handoff (or crash):
// close the old session through the control plane, promote the
// successor, open the switch measurement window — the same choreography
// as the simulator's applySwitch, with control round-trips in place of
// shared memory.
func (r *Runner) applySwitchDirective(d *Directive) {
	r.endWindow(true)
	if d.Failure {
		if !d.Resolved {
			// Replay the resolver's membership repair structurally.
			r.g.ClearNode(d.Old)
			for _, e := range d.Repair {
				r.g.AddEdge(e[0], e[1])
			}
		}
		r.stopPeer(d.Old)
		r.refreshNeighbors()
	}
	r.timeline[len(r.timeline)-1].End = d.S1End
	r.timeline = append(r.timeline, segment.Session{
		Source: segment.SourceID(d.New), Begin: d.S1End + 1, End: segment.None,
	})
	r.roles[d.New] = true
	if newH, ok := r.peers[d.New]; ok {
		newH.isSource = true
		newH.active = true
		newH.p.ctrlCh <- ctrlMsg{kind: ctrlBecomeSource, sessions: append([]segment.Session(nil), r.timeline...)}
	}
	r.lastRetired = d.Old
	r.startWindow(true, d.Horizon, d.Failure)
}

// applyDemoteDirective returns the resolved ex-source to listener duty.
func (r *Runner) applyDemoteDirective(d *Directive) {
	delete(r.roles, d.Node)
	if h, ok := r.peers[d.Node]; ok {
		h.isSource = false
		h.p.ctrlCh <- ctrlMsg{
			kind:     ctrlDemote,
			sessions: append([]segment.Session(nil), r.timeline...),
			anchor:   d.Anchor,
		}
	}
	if d.Node == r.lastRetired {
		r.lastRetired = -1
	}
}

// applyMembership executes a resolved membership step: stop victims,
// replay structural mutations when they came from another process,
// spawn owned joiners, refresh neighbor lists.
func (r *Runner) applyMembership(d *Directive) {
	changed := false
	for _, v := range d.Leaves {
		if !d.Resolved {
			r.g.ClearNode(v)
		}
		r.stopPeer(v)
		changed = true
	}
	if !d.Resolved {
		for _, e := range d.Repair {
			r.g.AddEdge(e[0], e[1])
		}
	}
	for _, js := range d.Joins {
		r.applyJoin(js, d.Resolved)
		if r.err != nil {
			return
		}
		changed = true
	}
	if changed {
		r.refreshNeighbors()
	}
}

// applyJoin wires one resolved joiner into the local graph and spawns
// it when owned.
func (r *Runner) applyJoin(js JoinSpec, resolved bool) {
	// Every process records the joiner's profile, owner or not — the
	// failover machinery restates it if the peer ever respawns.
	r.profile[js.ID] = bandwidth.Profile{In: js.ProfIn, Out: js.ProfOut}
	if !resolved {
		// Ids are assigned sequentially by the resolver's directory; the
		// local graph must agree or the two processes have diverged.
		id := r.g.AddNode()
		if id != js.ID {
			r.err = fmt.Errorf("runtime: join replay assigned node %d, resolver assigned %d (diverged topology)", id, js.ID)
			return
		}
		for _, nb := range js.Neighbors {
			r.g.AddEdge(js.ID, nb)
		}
	}
	if !r.owns(js.ID) {
		return
	}
	spec := spawnSpec{
		id:         js.ID,
		profile:    bandwidth.Profile{In: js.ProfIn, Out: js.ProfOut},
		bwFactor:   r.bwFactor,
		neighbors:  r.g.Neighbors(js.ID),
		sessions:   r.timeline,
		anchor:     js.Anchor,
		sessionIdx: js.SessionIdx,
		known:      js.Known,
		mySession:  -1,
		seed:       r.sc.Seed ^ (int64(js.ID)+1)*0x9e37_79b9,
	}
	if err := r.spawn(spec); err != nil {
		r.err = err
	}
}

// ---- Sharded driving (cluster agent side) ----

// StartShard prepares the runner to be driven tick by tick as one shard
// of a multi-process run: it spawns the owned slice of the initial
// population and hands event resolution and directive delivery to the
// caller, who ends every period with Pace. shards must divide the id
// space consistently across every process (id mod shards == shard).
func (r *Runner) StartShard(shard, shards int) error {
	if r.ran {
		return fmt.Errorf("runtime: Run called twice")
	}
	if shard < 0 || shards < 1 || shard >= shards {
		return fmt.Errorf("runtime: shard %d of %d out of range", shard, shards)
	}
	r.ran = true
	r.shard, r.shards = shard, shards
	if err := r.spawnInitial(); err != nil {
		r.shutdown()
		return err
	}
	r.nextWall = time.Now()
	if r.obs != nil {
		r.obs.trace.Emit(obs.TraceEvent{T: obs.EvRunStart,
			Scenario: r.sc.Name, Algo: r.res.Algorithm, Nodes: r.g.N(),
			Seed: r.sc.Seed, Shard: shard})
	}
	return nil
}

// TickShard runs one scheduling period: publish the tick, pace every
// owned peer through its period and collect their reports (the frame
// exchange itself runs on the wall clock in the peers' own goroutines),
// advance windows. The caller applies directives between calls and ends
// the period with Pace.
func (r *Runner) TickShard() error {
	tickStart := time.Now()
	r.tr.SetTick(r.tick, 1/r.opt.TimeScale)
	ticked := 0
	for _, h := range r.peers {
		if h.running {
			h.p.tickCh <- tickCmd{n: r.tick}
			ticked++
		}
	}
	for i := 0; i < ticked; i++ {
		r.observe(<-r.reports)
	}
	r.stats.Periods++
	if r.win.Due(r.tick) {
		r.endWindow(false)
	}
	r.tickObs(tickStart)
	r.tick++
	return r.err
}

// CurrentTick is the next period TickShard will run.
func (r *Runner) CurrentTick() int { return r.tick }

// Duration is the scripted (or auto-derived) run length in periods.
func (r *Runner) Duration() int { return r.duration }

// EarlyExit reports whether the scenario allows ending once all events
// fired and all windows closed (auto-derived duration).
func (r *Runner) EarlyExit() bool { return r.earlyExit }

// Idle reports whether this shard has no open measurement window.
func (r *Runner) Idle() bool { return !r.win.Active() }

// DueEvent peeks the next unfired timeline event due at or before the
// current tick.
func (r *Runner) DueEvent() (sim.Event, bool) {
	if r.nextEvent < len(r.events) && r.events[r.nextEvent].Tick <= r.tick {
		return r.events[r.nextEvent], true
	}
	return sim.Event{}, false
}

// PopEvent consumes the event DueEvent returned.
func (r *Runner) PopEvent() { r.nextEvent++ }

// EventsDone reports whether the whole timeline has been consumed.
func (r *Runner) EventsDone() bool { return r.nextEvent >= len(r.events) }

// ResolveChurnStep exposes the per-tick churn resolution to the
// coordinator loop (nil when this tick churns nothing).
func (r *Runner) ResolveChurnStep() *Directive { return r.resolveChurn() }

// FinishShard closes any open window and shuts the peers and transport
// down. The per-shard Result holds this shard's windows (cohorts are
// owned peers only); the coordinator merges them by window index.
func (r *Runner) FinishShard() *sim.Result {
	r.endWindow(true)
	r.finishObs()
	r.stats.Transport = r.tr.Stats()
	r.shutdown()
	return r.res
}
