package sim

import (
	"fmt"
	"math/rand"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/membership"
	"gossipstream/internal/netmodel"
	"gossipstream/internal/obs"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim/engine"
)

// Event resolution: every scenario event, and each tick's baseline or
// burst churn, is resolved into a Directive (all its nondeterministic
// choices made explicit: successor picks, crash truncation, churn victims,
// join wiring, profiles and anchors, partition seeds), which the driver
// then applies. Two drivers share the Resolver. The simulator resolves and
// applies back to back in its events and churn phases. The live runtime
// resolves at the single-process runner or the cluster coordinator and
// applies the directive on every shard. So for one scenario and seed both
// backends run the same experiment.
//
// The Resolver owns every draw resolution makes (the membership
// directory's stream, the churn stream and the per-event rngEvents stream)
// and the state those draws consult: the burst window, the last switch's
// pair of sources and the last retired source. What it needs to know
// about nodes it asks its driver through Facts.

// Facts are the per-node answers resolution asks its driver for. The
// simulator answers exactly; the live runtime answers from its peers' last
// reports, one period stale like any failure detector.
type Facts interface {
	// Alive reports whether the node is a member under the cohort rule:
	// arrived and not departed.
	Alive(id overlay.NodeID) bool
	// Sourced reports whether the node holds or held the source role (a
	// demote clears it).
	Sourced(id overlay.NodeID) bool
	// MaxSeen is the highest segment id the node holds (segment.None
	// before its first).
	MaxSeen(id overlay.NodeID) segment.ID
	// WindowLo is the lowest segment id the node's playback still cares
	// about (Playback.WindowLo).
	WindowLo(id overlay.NodeID) segment.ID
}

// DirKind enumerates resolved directives.
type DirKind uint8

const (
	// DirSwitch executes a resolved source handoff (planned or crash).
	DirSwitch DirKind = iota + 1
	// DirDemote returns a resolved ex-source to listener duty.
	DirDemote
	// DirMeasure closes the open window and opens a plain measurement
	// window of Ticks periods.
	DirMeasure
	// DirMembership applies one resolved membership step: leaves with
	// their repair edges, and joins with their full wiring.
	DirMembership
	// DirBandwidth scales every listener's bandwidth by Factor.
	DirBandwidth
	// DirLatency scales the transport's latency by Factor.
	DirLatency
	// DirLoss starts a loss burst of probability Prob until tick Until.
	DirLoss
	// DirPartition splits the transport's reachability with the resolved
	// Seed.
	DirPartition
	// DirHeal lifts the partition.
	DirHeal
)

// String implements fmt.Stringer.
func (k DirKind) String() string {
	switch k {
	case DirSwitch:
		return "switch"
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
	}
	return fmt.Sprintf("directive(%d)", uint8(k))
}

// JoinSpec is one resolved joiner: the id the membership walk assigned,
// the wiring it chose, the playback anchor and the drawn bandwidth
// profile. A driver builds the node from it without a draw of its own,
// entering playback at JoinPlayback(sessions, Anchor).
type JoinSpec struct {
	ID        overlay.NodeID
	Neighbors []overlay.NodeID
	Anchor    segment.ID
	Profile   bandwidth.Profile
}

// Directive is one resolved scenario event or churn step. Fields are a
// union over kinds; unused fields are zero.
type Directive struct {
	Kind DirKind
	Tick int // the tick the directive was resolved at

	// DirSwitch: the handoff pair, the closing id of the old session (a
	// planned switch leaves it to the driver), the window horizon, and
	// Failure for a crash.
	Old     overlay.NodeID
	New     overlay.NodeID
	S1End   segment.ID
	Horizon int
	Failure bool

	// DirDemote: the ex-source and its rejoin anchor.
	Node   overlay.NodeID
	Anchor segment.ID

	// DirMeasure / DirLoss.
	Ticks int
	Until int

	// DirBandwidth / DirLatency / DirLoss / DirPartition.
	Factor float64
	Prob   float64
	Frac   float64
	ByPing bool
	Seed   int64

	// DirMembership (Repair also for a crash switch): the departed nodes,
	// the edges the directory added repairing around every departure, and
	// the joiners.
	Leaves []overlay.NodeID
	Repair [][2]overlay.NodeID
	Joins  []JoinSpec
}

// DirectiveStep does the half of applying a resolved directive that is
// the same in every backend: it counts d in events (gossip_events_total),
// writes d's trace lines to tr and applies a transport directive
// (latency, loss, partition, heal) to net. The lines are one event line
// of kind name (d.Kind's name; the cluster names its own kinds), a
// partition's sever or heal line, and a switch's s1-end and
// become-source milestones, all stamped with d's resolve tick and shard
// (0 outside a multi-process run). The caller fills a planned switch's
// S1End before the call and applies everything else itself. tr and
// events may be nil, and net may be nil when d is not a transport
// directive.
func DirectiveStep(d *Directive, name string, net *netmodel.Model, tr *obs.Trace, events *obs.Counter, shard int) {
	events.Inc()
	if tr != nil {
		te := obs.TraceEvent{T: obs.EvEvent, Tick: d.Tick, Kind: name, Shard: shard}
		switch d.Kind {
		case DirSwitch:
			te.Node, te.To = obs.P(int64(d.Old)), obs.P(int64(d.New))
		case DirDemote:
			te.Node = obs.P(int64(d.Node))
		}
		tr.Emit(te)
		switch d.Kind {
		case DirSwitch:
			tr.Emit(obs.TraceEvent{T: obs.EvSwitch, Tick: d.Tick, Kind: "s1-end", Seg: obs.P(int64(d.S1End)), Shard: shard})
			tr.Emit(obs.TraceEvent{T: obs.EvSwitch, Tick: d.Tick, Kind: "become-source", Node: obs.P(int64(d.New)), Seg: obs.P(int64(d.S1End + 1)), Shard: shard})
		case DirPartition:
			tr.Emit(obs.TraceEvent{T: obs.EvPartition, Tick: d.Tick, Kind: "sever", Shard: shard})
		case DirHeal:
			tr.Emit(obs.TraceEvent{T: obs.EvPartition, Tick: d.Tick, Kind: "heal", Shard: shard})
		}
	}
	switch d.Kind {
	case DirLatency:
		net.SetLatencyFactor(d.Factor)
	case DirLoss:
		net.SetLossBurst(d.Prob, d.Until)
	case DirPartition:
		if d.ByPing {
			net.PartitionByPing(d.Frac, d.Seed)
		} else {
			net.Partition(d.Frac, d.Seed)
		}
	case DirHeal:
		net.Heal()
	}
}

// Resolver turns scenario events and churn into Directives. It is not
// safe for concurrent use; each run has one, at the process that resolves.
type Resolver struct {
	facts    Facts
	dir      *membership.Directory
	seed     int64
	horizon  int          // window horizon of a switch that sets none
	churn    *ChurnConfig // baseline churn, nil when static
	churnRNG *rand.Rand   // churn joiner profiles

	burst      *ChurnConfig // churn-burst override, nil outside bursts
	burstUntil int          // first tick after the burst
	// old and cur are the last switch's old and new source (the first
	// source and -1 before any switch): churn never draws them.
	old, cur overlay.NodeID
	// retired is the most recent node that stopped being the source, the
	// default target of a demote; -1 once it is demoted.
	retired overlay.NodeID
}

// NewResolver returns the resolver of a run compiled to cfg,
// asking f for per-node facts.
func NewResolver(cfg Config, f Facts) *Resolver {
	return &Resolver{
		facts:    f,
		dir:      membership.NewDirectory(cfg.Graph, neighborTarget(cfg.Graph), rand.New(rand.NewSource(cfg.Seed^0x3a11ce))),
		seed:     cfg.Seed,
		horizon:  cfg.HorizonTicks,
		churn:    cfg.Churn,
		churnRNG: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed_c0de)),
		old:      cfg.FirstSource,
		cur:      -1,
		retired:  -1,
	}
}

// Directory is the run's membership directory. Resolution is its only
// writer, apart from a cluster failover removing an ex-source lost with
// its shard.
func (r *Resolver) Directory() *membership.Directory { return r.dir }

// Event resolves ev, the idx-th event of the sorted timeline, firing at
// tick. cur is the current session and head the stream head: the next
// segment id cur's source will emit. A planned switch leaves S1End to the
// driver, which knows it (the simulator's last generated id, the live
// source's stop reply). A churn burst only moves the burst window and
// resolves to nil.
func (r *Resolver) Event(ev Event, idx, tick int, cur segment.Session, head segment.ID) (*Directive, error) {
	d := &Directive{Tick: tick}
	switch ev.Kind {
	case EvSwitchSource:
		return r.switchSource(ev, tick, cur)
	case EvDemoteSource:
		return r.demote(ev, tick, cur)
	case EvChurnBurst:
		r.burst = &ChurnConfig{LeaveFraction: ev.Leave, JoinFraction: ev.Join}
		r.burstUntil = tick + ev.Ticks
		return nil, nil
	case EvMeasureWindow:
		d.Kind, d.Ticks = DirMeasure, ev.Ticks
	case EvFlashCrowd:
		r.flashCrowd(d, ev, rand.New(rand.NewSource(r.eventSeed(tick, idx))), cur, head)
	case EvBandwidthShift:
		d.Kind, d.Factor = DirBandwidth, ev.Factor
	case EvLatencyShift:
		d.Kind, d.Factor = DirLatency, ev.Factor
	case EvLossBurst:
		d.Kind, d.Prob, d.Until = DirLoss, ev.Prob, tick+ev.Ticks
	case EvPartition:
		// The side-assignment seed comes from the event's own stream, so
		// two partitions in one run split differently.
		d.Kind, d.Frac, d.ByPing, d.Seed = DirPartition, ev.Frac, ev.ByPing, r.eventSeed(tick, idx)
	case EvHeal:
		d.Kind = DirHeal
	default:
		return nil, fmt.Errorf("sim: unknown event kind %v at tick %d", ev.Kind, tick)
	}
	return d, nil
}

// eventSeed is the seed of the idx-th event's own stream (the rngEvents
// tag): per-event randomness never depends on anything but the event's
// place in the timeline.
func (r *Resolver) eventSeed(tick, idx int) int64 {
	return engine.SeedFor(r.seed, rngEvents, tick, idx, 0)
}

// switchSource resolves a handoff from cur's source to the pinned target
// when it is eligible (alive in the directory, never a source), else to a
// uniform draw; a crash also resolves the truncation and the repair.
func (r *Resolver) switchSource(ev Event, tick int, cur segment.Session) (*Directive, error) {
	old := overlay.NodeID(cur.Source)
	to := ev.To
	if to >= 0 && (!r.dir.IsAlive(to) || r.facts.Sourced(to)) {
		to = -1 // pinned target unusable: fall back to the draw
	}
	if to < 0 {
		to = r.successor(old)
	}
	if to < 0 {
		return nil, fmt.Errorf("sim: switch at tick %d: no eligible new source (every alive node is or was a source)", tick)
	}
	d := &Directive{Kind: DirSwitch, Tick: tick, Old: old, New: to, Horizon: ev.Horizon}
	if d.Horizon <= 0 {
		d.Horizon = r.horizon
	}
	r.old, r.cur, r.retired = old, to, old
	if ev.Failure {
		r.Crash(d, cur)
	}
	return d, nil
}

// successor draws a uniformly random alive node that never held the
// source role, excluding old; -1 when none exists. The draw comes from
// the membership directory's stream, the same stream churn picks from.
func (r *Resolver) successor(old overlay.NodeID) overlay.NodeID {
	for tries := 0; tries < 64; tries++ {
		cand := r.dir.RandomAlive(old)
		if cand < 0 {
			return -1
		}
		if !r.facts.Sourced(cand) {
			return cand
		}
	}
	// Dense ex-source corner (long handoff chains on tiny meshes): the
	// linear fallback keeps the pick total.
	for _, cand := range r.dir.Alive() {
		if cand != old && !r.facts.Sourced(cand) {
			return cand
		}
	}
	return -1
}

// Crash makes d, a resolved switch away from cur, an abrupt crash of
// d.Old. The speaker's unsent segments are lost, so the session truncates
// at the highest id any alive listener holds, floored at cur.Begin-1; the
// truncated ids are reused by the next session. The old source leaves the
// overlay and the directory repairs around it. The cluster coordinator
// also calls it when a planned switch's old source dies with its shard
// before its closing id came back.
func (r *Resolver) Crash(d *Directive, cur segment.Session) {
	end := cur.Begin - 1
	for _, id := range r.dir.Alive() {
		if r.facts.Alive(id) && !r.facts.Sourced(id) {
			end = max(end, r.facts.MaxSeen(id))
		}
	}
	d.Failure, d.S1End = true, end
	d.Repair = r.dir.Leave(d.Old)
}

// demote validates the ex-source to return to listener duty (ev.To, or
// the last retired source) and resolves its rejoin anchor. The current
// source and dead ex-sources cannot be demoted.
func (r *Resolver) demote(ev Event, tick int, cur segment.Session) (*Directive, error) {
	id := ev.To
	if id < 0 {
		id = r.retired
	}
	switch {
	case id < 0 || int(id) >= r.dir.Graph().N():
		return nil, fmt.Errorf("sim: demote at tick %d: no ex-source to demote", tick)
	case !r.facts.Sourced(id):
		return nil, fmt.Errorf("sim: demote at tick %d: node %d never held the source role or was already demoted", tick, id)
	case overlay.NodeID(cur.Source) == id && cur.Open():
		return nil, fmt.Errorf("sim: demote at tick %d: node %d is the current source", tick, id)
	case !r.facts.Alive(id):
		return nil, fmt.Errorf("sim: demote at tick %d: ex-source %d is dead", tick, id)
	}
	if id == r.retired {
		r.retired = -1
	}
	return &Directive{Kind: DirDemote, Tick: tick, Node: id, Anchor: r.JoinAnchor(r.dir.Graph().Neighbors(id))}, nil
}

// flashCrowd resolves a batch of fresh joiners into d. Unlike churn
// joiners, crowd members play the current stream from its beginning,
// bounded by the event's backlog behind head. Profiles come from the
// event's own stream.
func (r *Resolver) flashCrowd(d *Directive, ev Event, rng *rand.Rand, cur segment.Session, head segment.ID) {
	anchor := cur.Begin
	if ev.Backlog > 0 {
		anchor = max(anchor, head-segment.ID(ev.Backlog))
	}
	d.Kind = DirMembership
	for i := 0; i < ev.Count; i++ {
		id, neighbors := r.dir.Join()
		d.Joins = append(d.Joins, JoinSpec{ID: id, Neighbors: neighbors, Anchor: anchor, Profile: drawProfile(rng)})
	}
}

// Churn resolves the churn at the end of tick: the baseline, or a burst's
// fractions while one runs. LeaveFraction of the alive nodes leave, drawn
// uniformly, never the last switch's pair, a source or a node not yet
// arrived. JoinFraction fresh nodes join through the directory, each
// anchored at its neighbors' playback position. nil when nothing changes.
func (r *Resolver) Churn(tick int) *Directive {
	cc := r.churn
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
	d := &Directive{Kind: DirMembership, Tick: tick}
	for i, leaves := 0, int(cc.LeaveFraction*float64(alive)); i < leaves; i++ {
		victim := r.dir.RandomAlive(r.old, r.cur)
		if victim < 0 {
			break
		}
		if r.facts.Sourced(victim) || !r.facts.Alive(victim) {
			continue
		}
		d.Leaves = append(d.Leaves, victim)
		d.Repair = append(d.Repair, r.dir.Leave(victim)...)
	}
	first := overlay.NodeID(r.dir.Graph().N()) // this step's first joiner id
	for i, joins := 0, int(cc.JoinFraction*float64(alive)); i < joins; i++ {
		id, neighbors := r.dir.Join()
		prof := drawProfile(r.churnRNG)
		d.Joins = append(d.Joins, JoinSpec{ID: id, Neighbors: neighbors, Anchor: r.anchor(neighbors, first, d.Joins), Profile: prof})
	}
	if len(d.Leaves) == 0 && len(d.Joins) == 0 {
		return nil
	}
	return d
}

// JoinAnchor is the Section 5.4 joiner rule, "follow its neighbors'
// current steps": the furthest playback position among the alive
// neighbors, 0 when none plays yet.
func (r *Resolver) JoinAnchor(neighbors []overlay.NodeID) segment.ID {
	return r.anchor(neighbors, 0, nil)
}

// anchor is JoinAnchor where pending holds the joiners resolved earlier
// in the same step, ids first onwards: the driver has not built them yet,
// so each answers its own anchor.
func (r *Resolver) anchor(neighbors []overlay.NodeID, first overlay.NodeID, pending []JoinSpec) segment.ID {
	a := segment.ID(0)
	for _, v := range neighbors {
		if k := int(v - first); k >= 0 && k < len(pending) {
			a = max(a, pending[k].Anchor)
		} else if r.facts.Alive(v) {
			a = max(a, r.facts.WindowLo(v))
		}
	}
	return a
}

// drawProfile draws one joiner's bandwidth profile, inbound first.
func drawProfile(rng *rand.Rand) bandwidth.Profile {
	in := bandwidth.DrawRate(rng)
	return bandwidth.Profile{In: in, Out: bandwidth.DrawRate(rng)}
}
