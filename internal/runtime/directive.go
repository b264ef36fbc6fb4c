package runtime

import (
	"fmt"
	"time"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/obs"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim"
)

// The resolve/apply split: every scenario event and churn step is
// resolved by the run's sim.Resolver, the same code the simulator
// resolves with, into a directive, then applied. A single-process run
// resolves and applies back to back; a multi-process run resolves once
// at the coordinator and applies the broadcast Directive on every shard,
// so every process makes the same decisions without sharing memory or RNG
// state. The Directive is the unit the cluster control plane retries until
// acknowledged.

// The cluster-only directive kinds, numbered past the scenario kinds
// sim.Resolver emits. The cluster agent consumes DirStopSource and
// DirFinish itself; only DirReassign reaches Apply.
const (
	// DirStopSource closes the current source's open session (targeted
	// at the shard owning it, which answers with the closing segment id
	// as an S1End message).
	DirStopSource sim.DirKind = iota + 32
	// DirFinish ends the run (coordinator-initiated early exit).
	DirFinish
	// DirReassign folds a dead shard's orphaned peers into survivors:
	// every process records the ownership overrides, and the new owners
	// respawn their peers anchored at the neighborhood frontier.
	DirReassign
)

// Directive is one resolved control-plane command: a scenario directive
// from the resolver, or one of the cluster-only kinds.
type Directive struct {
	sim.Directive

	// DirReassign.
	DeadShard int
	Respawns  []RespawnSpec

	// Resolved marks a directive applied on the process that resolved
	// it: the membership directory already mutated the graph during
	// resolution, so apply must not replay the structural mutations. A
	// directive shipped to another process arrives with Resolved false.
	Resolved bool
}

// KindName names the directive's kind, the cluster-only ones included.
func (d *Directive) KindName() string {
	switch d.Kind {
	case DirStopSource:
		return "stop-source"
	case DirFinish:
		return "finish"
	case DirReassign:
		return "reassign"
	}
	return d.Kind.String()
}

// NodeStatus is one node's per-period state as shipped from a shard to
// the coordinator — the failure-detector knowledge event resolution
// runs on (runnerFacts: crash truncation points, demote/join anchors,
// which nodes count as alive).
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
	if m := r.owner.Load(); m != nil {
		if s, ok := (*m)[id]; ok {
			return s
		}
	}
	return int(id) % r.shards
}

// OwnerOf exposes the ownership rule to the cluster: the coordinator's
// stop-source call and failover machinery, and every process's peer
// routing, which calls it from the peers' goroutines (safe once
// StartShard has returned).
func (r *Runner) OwnerOf(id overlay.NodeID) int { return r.ownerOf(id) }

// Shard and Shards expose the runner's slice of the population.
func (r *Runner) Shard() int  { return r.shard }
func (r *Runner) Shards() int { return r.shards }

// runnerFacts answers the resolver's per-node questions from the
// runner's last reports: an owned peer from its handle, a remote node
// from the status its shard last shipped — one period stale, like any
// failure detector. The source-role ledger is the runner's roles map.
type runnerFacts Runner

func (f *runnerFacts) Alive(id overlay.NodeID) bool {
	if h, ok := f.peers[id]; ok {
		return h.running && h.active
	}
	if f.shards <= 1 || !f.dir.IsAlive(id) {
		return false
	}
	rep, ok := f.lastRep[id]
	return ok && rep.alive
}

func (f *runnerFacts) Sourced(id overlay.NodeID) bool { return f.roles[id] }

func (f *runnerFacts) MaxSeen(id overlay.NodeID) segment.ID {
	if rep, ok := f.lastRep[id]; ok {
		return rep.maxSeen
	}
	return segment.None
}

func (f *runnerFacts) WindowLo(id overlay.NodeID) segment.ID { return f.lastRep[id].windowLo }

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

// ResolveEvent resolves ev, the next due event (its timeline index keys
// its draws), into a directive; nil for a churn burst, which only moves
// the resolver's burst window. A planned switch also needs the old
// source's closing segment id: when the old source is owned, the stop
// round trip runs inline; when it is remote, ResolveEvent returns the
// switch with stop set, and the caller fills S1End from a DirStopSource
// round trip to the owning shard (or makes it a crash with CrashSwitch).
func (r *Runner) ResolveEvent(ev sim.Event) (d *Directive, stop bool, err error) {
	cur := r.tl.Current()
	// The stream head as the current source last reported it.
	head := (*runnerFacts)(r).MaxSeen(overlay.NodeID(cur.Source)) + 1
	sd, err := r.resolver.Event(ev, r.nextEvent, r.tick, cur, head)
	if sd == nil || err != nil {
		return nil, false, err
	}
	d = &Directive{Directive: *sd, Resolved: true}
	if d.Kind == sim.DirSwitch && !d.Failure {
		if !r.owns(d.Old) {
			return d, true, nil
		}
		d.S1End, _ = r.StopSource(d.Old)
	}
	return d, false, nil
}

// CrashSwitch makes a resolved planned switch still awaiting its closing
// id a crash handoff: the old source's shard died, so the id is
// unknowable, and S1 truncates at the cohort's reported high-water mark
// exactly like a scripted failure switch.
func (r *Runner) CrashSwitch(d *Directive) { r.resolver.Crash(&d.Directive, r.tl.Current()) }

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

// ResolveChurnStep resolves the baseline (or burst-overridden) churn of
// the period TickShard just completed — the simulator's churn phase, at
// tick end — into one membership directive; nil when nothing changes.
func (r *Runner) ResolveChurnStep() *Directive {
	sd := r.resolver.Churn(r.tick - 1) // TickShard already advanced to the next period
	if sd == nil {
		return nil
	}
	return &Directive{Directive: *sd, Resolved: true}
}

// ---- Application (every shard) ----

// Apply executes one resolved directive against this shard.
// sim.DirectiveStep counts and traces it and applies a transport
// directive to the shaping policy's model, under the policy's write
// lock. Structural graph mutations are replayed when the directive came
// from another process (Resolved false), peer-facing actions run for
// owned nodes only, and window bookkeeping runs everywhere so each
// shard's windows line up by index for the merge.
func (r *Runner) Apply(d *Directive) error {
	var tr *obs.Trace
	var events *obs.Counter
	if ob := r.obs; ob != nil {
		tr, events = ob.trace, ob.events
	}
	step := func(m *netmodel.Model) { sim.DirectiveStep(&d.Directive, d.KindName(), m, tr, events, r.shard) }
	if r.policy != nil {
		r.policy.mutate(step)
	} else {
		step(nil)
	}
	switch d.Kind {
	case sim.DirSwitch:
		r.applySwitchDirective(d)
	case sim.DirDemote:
		r.applyDemoteDirective(d)
	case sim.DirMeasure:
		r.endWindow(true)
		r.startWindow(false, d.Ticks, false)
	case sim.DirMembership:
		r.applyMembership(d)
	case sim.DirBandwidth:
		r.bwFactor = d.Factor
		for _, h := range r.peers {
			if h.running {
				h.p.ctrlCh <- ctrlMsg{kind: ctrlBandwidth, factor: d.Factor}
			}
		}
	case sim.DirLatency, sim.DirLoss, sim.DirPartition, sim.DirHeal:
		// Applied to the transport's model by DirectiveStep.
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
	r.tl.Close(d.S1End)
	if _, err := r.tl.Append(segment.SourceID(d.New)); err != nil {
		panic(fmt.Sprintf("runtime: timeline append: %v", err)) // unreachable: Close precedes
	}
	r.roles[d.New] = true
	if newH, ok := r.peers[d.New]; ok {
		newH.isSource = true
		newH.active = true
		newH.p.ctrlCh <- ctrlMsg{kind: ctrlBecomeSource, sessions: r.tl.Sessions()}
	}
	r.startWindow(true, d.Horizon, d.Failure)
}

// applyDemoteDirective returns the resolved ex-source to listener duty.
func (r *Runner) applyDemoteDirective(d *Directive) {
	delete(r.roles, d.Node)
	if h, ok := r.peers[d.Node]; ok {
		h.isSource = false
		h.p.ctrlCh <- ctrlMsg{
			kind:     ctrlDemote,
			sessions: r.tl.Sessions(),
			anchor:   d.Anchor,
		}
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
func (r *Runner) applyJoin(js sim.JoinSpec, resolved bool) {
	// Every process records the joiner's profile, owner or not — the
	// failover machinery restates it if the peer ever respawns.
	r.profile[js.ID] = js.Profile
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
	if err := r.spawn(r.joinSpawn(js, 0)); err != nil {
		r.err = err
	}
}

// joinSpawn is the spawn spec of a resolved joiner (or a respawned
// orphan, with its salt): wiring from the local graph, playback entering
// the session that holds the resolved anchor.
func (r *Runner) joinSpawn(js sim.JoinSpec, salt int64) spawnSpec {
	sessions := r.tl.Sessions()
	pb := sim.JoinPlayback(sessions, js.Anchor)
	return spawnSpec{
		id:         js.ID,
		profile:    js.Profile,
		bwFactor:   r.bwFactor,
		neighbors:  r.g.Neighbors(js.ID),
		sessions:   sessions,
		anchor:     js.Anchor,
		sessionIdx: pb.SessionIdx,
		known:      pb.Known,
		mySession:  -1,
		seed:       r.sc.Seed ^ (int64(js.ID)+1)*0x9e37_79b9 ^ salt,
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

// FinishShard closes any open window and shuts the peers down (and the
// transport, when the runner created it). The per-shard Result holds this shard's windows (cohorts are
// owned peers only); the coordinator merges them by window index.
func (r *Runner) FinishShard() *sim.Result {
	r.endWindow(true)
	r.finishObs()
	r.stats.Transport = r.tr.Stats()
	r.shutdown()
	return r.res
}
