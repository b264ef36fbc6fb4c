package sim

import (
	"fmt"
	"math/rand"
	"time"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/core"
	"gossipstream/internal/membership"
	"gossipstream/internal/netmodel"
	"gossipstream/internal/obs"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim/engine"
	"gossipstream/internal/stats"
)

// Sim is one streaming system instance. Create with New, execute with Run.
// A Sim is not reusable after Run. Each tick executes the phase pipeline
// (events → arrivals → generate → refill → plan/serve rounds → deliver →
// playback → churn → record); the plan, serve, refill and playback phases
// shard per-node work across the engine worker pool, under the engine
// package's determinism contract — results are bit-identical at any
// worker count. The events phase executes the run's Script (the scenario
// engine).
type Sim struct {
	cfg Config

	pool     *engine.Pool
	pipeline *engine.Pipeline
	sched    *engine.Pipeline // the per-round plan → serve sub-pipeline

	// jitterRNG is the serve commit's jitter generator, reseeded to its
	// per-(tick, round) stream before each commit's send pass.
	jitterRNG *rand.Rand

	// resolver turns script events and churn into directives (resolve.go);
	// dir is its membership directory, read here.
	resolver *Resolver
	g        *overlay.Graph
	dir      *membership.Directory
	nodes    []*nodeState
	algo     core.Algorithm // naming only; planning uses per-worker instances

	// net is the message-level transport model (nil = classic instant
	// delivery). When set, the pipeline's transit phase replaces the
	// deliver phase and granted segments travel as in-flight messages.
	net *netmodel.Model

	tl      *segment.Timeline
	nextGen segment.ID // next id the current source will emit

	// Event timeline: the run's Script sorted by tick; nextEvent indexes
	// the first unfired event.
	events    []Event
	nextEvent int
	duration  int
	// earlyExit lets the run end before duration once all events fired
	// and all windows closed. True unless the script set an explicit
	// Duration — a user-set cap is honored exactly.
	earlyExit bool
	// runErr records an event that could not be applied (e.g. a switch
	// with no eligible successor); Run surfaces it.
	runErr error

	// Latest-switch state, updated by each SwitchSource event. The
	// playback and planning phases read these to classify segments into
	// the ending stream (S1) and the new stream (S2) of the most recent
	// switch.
	oldSource, newSource overlay.NodeID
	s1End, s2Begin       segment.ID
	newSessionIdx        int

	bwFactor float64 // current bandwidth shift factor (1 = baseline)

	tick int
	ran  bool
	win  Window // the measurement window (window.go)
	res  *Result

	// Whole-run transport ledger (netmodel runs only), independent of the
	// window state: every injected message ends up in exactly one of the
	// outcome buckets, and finalize closes the books against the
	// transport's in-flight gauge (Result.Audit, audited by
	// CheckInvariants).
	audInjected  int64
	audDelivered int64
	audLost      int64
	audSevered   int64
	audEvap      int64

	// Per-tick pipeline state.
	round    int               // current plan/serve round within the period
	granted  bool              // whether the current round committed any grant
	sessions []segment.Session // per-tick snapshot of the timeline

	// Sharded scratch, reused across ticks.
	workers  []*workerScratch
	shards   []shardScratch
	incoming [][]Request

	// Observability (all nil when Config.Obs is unset): counters are
	// registered once in New and updated at the serial merge points and
	// phase boundaries with plain atomics; trace emission happens only at
	// event and window boundaries, never inside sharded work.
	trace        *obs.Trace
	obsSent      *obs.Counter
	obsDelivered *obs.Counter
	obsLost      *obs.Counter
	obsReReq     *obs.Counter
	obsEvents    *obs.Counter
	obsWindows   *obs.Counter
}

// RNG stream tags of the phases that draw randomness (the `phase` input
// of engine.SeedFor). New parallel phases must claim fresh tags.
const (
	rngPlan  = iota + 1 // prefetch draws, one stream per (tick, round, node)
	rngServe            // shared-outbound service order, one per (tick, round, shard)
	rngEvents
	rngNet    // transit-phase loss draws, one stream per (tick, shard)
	rngNetJit // serve-commit jitter draws, one stream per (tick, round)
)

// New validates the configuration and builds the initial system: all
// nodes alive, S1 streaming from segment 0, buffers empty.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:       cfg,
		g:         cfg.Graph,
		algo:      cfg.NewAlgorithm(),
		bwFactor:  1,
		jitterRNG: rand.New(&engine.Source{}),
	}
	s.resolver = NewResolver(cfg, (*simFacts)(s))
	s.dir = s.resolver.Directory()

	profiles, startTicks := cfg.Arrivals()
	s.nodes = make([]*nodeState, s.g.N())
	for i := range s.nodes {
		n := newNodeState(overlay.NodeID(i), profiles[i], 0)
		n.startTick = startTicks[i]
		n.alive = n.startTick == 0
		s.nodes[i] = n
	}
	s.oldSource = cfg.FirstSource
	s.tl = segment.NewTimeline(segment.SourceID(s.oldSource))
	s.nodes[s.oldSource].becomeSource()

	s.incoming = make([][]Request, len(s.nodes))
	s.newSessionIdx = -1
	s.newSource = -1
	if cfg.Net != nil {
		s.net = netmodel.New(*cfg.Net, Tau)
		// Reserve room for a few grants in flight per node — the
		// steady-state population under sub-period link delays — so the
		// warm-up ticks never grow the transport's heaps.
		s.net.Reserve(len(s.nodes), 4)
	}

	s.events, s.duration, s.earlyExit = cfg.Script.Schedule(cfg.HorizonTicks)
	s.res = &Result{Algorithm: s.algo.Name()}

	workers := cfg.Workers
	if workers == 0 {
		workers = 1 // every shard inline on the caller's goroutine
	}
	s.pool = engine.NewPool(workers)
	s.workers = make([]*workerScratch, s.pool.Workers())
	par := cfg.PeerParams()
	for i := range s.workers {
		s.workers[i] = &workerScratch{
			Planner: NewPlanner(cfg.NewAlgorithm(), par),
			Server:  NewServer(par),
			rng:     rand.New(&engine.Source{}),
		}
	}
	s.sched = engine.NewPipeline(
		engine.Phase{Name: "plan", Run: s.planRound},
		engine.Phase{Name: "serve", Run: s.serveRound},
	)
	// With the netmodel transport enabled, the sharded transit phase
	// replaces the instant end-of-tick deliver phase: grants travel as
	// in-flight messages and land when their arrival tick comes due.
	landing := engine.Phase{Name: "deliver", Run: s.phaseDeliver}
	if s.net != nil {
		landing = engine.Phase{Name: "transit", Run: s.phaseTransit}
	}
	s.pipeline = engine.NewPipeline(
		engine.Phase{Name: "events", Run: s.phaseEvents},
		engine.Phase{Name: "arrivals", Run: s.phaseArrivals},
		engine.Phase{Name: "generate", Run: s.phaseGenerate},
		engine.Phase{Name: "refill", Run: s.phaseRefill},
		engine.Phase{Name: "schedule", Run: s.phaseSchedule},
		landing,
		engine.Phase{Name: "playback", Run: s.phasePlayback},
		engine.Phase{Name: "churn", Run: s.phaseChurn},
		engine.Phase{Name: "record", Run: s.phaseRecord},
	)
	if o := cfg.Obs; o != nil {
		reg := o.Registry()
		s.pipeline.Observe(reg, o.ChromeSink(), 0, true)
		s.sched.Observe(reg, o.ChromeSink(), 1, false)
		s.trace = o.Tracer()
		s.obsSent = reg.Counter("gossip_frames_sent_total", "data segments granted by suppliers (dispatched grants)")
		s.obsDelivered = reg.Counter("gossip_frames_delivered_total", "data segments that reached their requester")
		s.obsLost = reg.Counter("gossip_frames_lost_total", "data segments lost in transit")
		s.obsReReq = reg.Counter("gossip_frames_rerequested_total", "grants re-requesting a previously lost segment")
		s.obsEvents = reg.Counter("gossip_events_total", "scenario directives applied")
		s.obsWindows = reg.Counter("gossip_windows_closed_total", "measurement windows closed")
	}
	s.win = NewWindow(Tau, s.trace, s.obsWindows)
	return s, nil
}

// Workers returns the engine concurrency the simulation runs with.
func (s *Sim) Workers() int { return s.pool.Workers() }

// CapturePhaseMem toggles per-phase allocation capture on both the tick
// pipeline and the plan/serve sub-pipeline (see engine.Pipeline.
// CaptureMem — a diagnostic mode; each phase boundary pays a
// stop-the-world ReadMemStats). Call before Run.
func (s *Sim) CapturePhaseMem(on bool) {
	s.pipeline.CaptureMem(on)
	s.sched.CaptureMem(on)
}

// PhaseTimings returns the accumulated wall-clock cost per pipeline
// phase, with the schedule phase broken down into its plan and serve
// sub-phases. Diagnostic only.
func (s *Sim) PhaseTimings() []engine.PhaseTiming {
	var out []engine.PhaseTiming
	for _, t := range s.pipeline.Timings() {
		if t.Name == "schedule" {
			out = append(out, s.sched.Timings()...)
			continue
		}
		out = append(out, t)
	}
	return out
}

// neighborTarget infers the membership view size from the topology's
// minimum degree (the paper's M, after augmentation).
func neighborTarget(g *overlay.Graph) int {
	m := g.MinDegree()
	if m < 1 {
		m = 5
	}
	return m
}

// Run executes the event timeline and returns the collected Result. The
// run ends at the script's duration — or earlier, once every event has
// fired and every measurement window has closed, when the duration was
// auto-derived rather than set explicitly.
func (s *Sim) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: Run called twice")
	}
	s.ran = true
	for s.tick = 0; s.tick < s.duration; s.tick++ {
		if s.trace != nil {
			start := time.Now()
			s.step()
			ns := int64(time.Since(start))
			if ns <= 0 {
				ns = 1 // ns is a required trace field; omitempty must not drop it
			}
			s.trace.Emit(obs.TraceEvent{T: obs.EvTick, Tick: s.tick, NS: ns})
		} else {
			s.step()
		}
		if s.runErr != nil {
			return nil, s.runErr
		}
		if s.earlyExit && !s.win.Active() && s.nextEvent >= len(s.events) {
			break
		}
	}
	// A window still open here was cut short by the duration cap, not by
	// its own horizon (phaseRecord closes horizon expiries in the loop).
	s.endWindow(true)
	s.finalize()
	if s.trace != nil {
		s.trace.Emit(obs.TraceEvent{T: obs.EvRunEnd, Tick: s.tick, Windows: len(s.res.Windows)})
	}
	return s.res, nil
}

// step advances the system by one scheduling period τ: one run of the
// phase pipeline.
func (s *Sim) step() { s.pipeline.Run() }

// ensureShards sizes the per-shard scratch to the current population.
func (s *Sim) ensureShards(n int) int {
	shards := engine.NumShards(n)
	for len(s.shards) < shards {
		s.shards = append(s.shards, shardScratch{})
	}
	return shards
}

// phaseEvents executes the script: every event scheduled at or before the
// current tick fires, in timeline order, at the start of the tick. The
// phase is serial (events mutate global structure), so the shard/merge
// determinism contract holds trivially; per-event randomness comes from a
// fresh rngEvents stream keyed by (tick, event index), never from a
// worker-dependent source.
func (s *Sim) phaseEvents() {
	for s.runErr == nil && s.nextEvent < len(s.events) && s.events[s.nextEvent].Tick <= s.tick {
		ev := s.events[s.nextEvent]
		idx := s.nextEvent
		s.nextEvent++
		s.fire(ev, idx)
	}
}

// fire resolves one event (resolve.go) and applies the directive. An
// event that cannot be resolved (a switch with no eligible successor, a
// demote with no live ex-source) is a run error, with the world intact.
// The closing id of a planned switch is the last segment the old source
// generated.
func (s *Sim) fire(ev Event, idx int) {
	d, err := s.resolver.Event(ev, idx, s.tick, s.tl.Current(), s.nextGen)
	if err != nil {
		s.runErr = err
		return
	}
	if d == nil {
		return // a churn burst: only the resolver's burst window moved
	}
	if d.Kind == DirSwitch && !d.Failure {
		d.S1End = s.nextGen - 1
	}
	DirectiveStep(d, d.Kind.String(), s.net, s.trace, s.obsEvents, 0)
	switch d.Kind {
	case DirSwitch:
		s.applySwitch(d)
	case DirMeasure:
		s.endWindow(true)
		s.startWindow(false, d.Ticks, false)
	case DirMembership:
		s.applyMembership(d)
	case DirBandwidth:
		s.shiftBandwidth(d.Factor)
	case DirDemote:
		s.applyDemote(d)
	}
}

// applyDemote turns the resolved ex-source back into a listener: its base
// bandwidth profile returns (under the current bandwidth shift), it
// rejoins playback at the resolved anchor exactly like a churn joiner,
// and — no longer being a source — it can be promoted again by a later
// switch (the round-trip handoff). The ex-source kept its buffer, so it
// usually starts as a well-provisioned supplier of the old stream.
func (s *Sim) applyDemote(d *Directive) {
	n := s.nodes[d.Node]
	n.isSource = false
	s.applyShift(n) // base × the current bandwidth shift, rates included
	s.sessions = s.tl.SessionsInto(s.sessions)
	n.Playback = JoinPlayback(s.sessions, d.Anchor)
}

// applyMembership executes a resolved membership step: departures leave
// the cohort, and joiners enter with their drawn profile (under the
// current bandwidth shift) at their resolved anchor.
func (s *Sim) applyMembership(d *Directive) {
	for _, v := range d.Leaves {
		s.nodes[v].alive = false
		if k := s.win.Slot(v); k >= 0 {
			s.win.Gone(k)
		}
	}
	s.sessions = s.tl.SessionsInto(s.sessions)
	for _, js := range d.Joins {
		n := newNodeState(js.ID, js.Profile, s.tick)
		n.Playback = JoinPlayback(s.sessions, js.Anchor)
		s.applyShift(n)
		s.nodes = append(s.nodes, n)
		s.incoming = append(s.incoming, nil)
	}
}

// applySwitch executes a resolved switch: the current source stops
// streaming (or crashes), the successor is promoted and starts the next
// session, and a fresh measurement window opens over the frozen cohort —
// the paper's "simulation time 0", once per SwitchSource event.
func (s *Sim) applySwitch(d *Directive) {
	s.endWindow(true)
	if d.Failure {
		// The crashed speaker's buffer is never consulted again (every
		// supplier path checks alive), so the truncated ids are safely
		// reused by the next session.
		s.nodes[d.Old].alive = false
	}
	s.s1End = d.S1End
	s.tl.Close(d.S1End)

	ses, err := s.tl.Append(segment.SourceID(d.New))
	if err != nil {
		panic(fmt.Sprintf("sim: timeline append: %v", err)) // unreachable: Close precedes
	}
	s.s2Begin = ses.Begin
	s.nextGen = ses.Begin
	s.newSessionIdx = s.tl.Len() - 1
	s.oldSource, s.newSource = d.Old, d.New

	ns := s.nodes[d.New]
	ns.becomeSource()
	// The synchronization mechanism the paper assumes: the new source
	// knows S1's ending segment id and embeds it in its first segments.
	ns.Known = s.newSessionIdx + 1

	s.startWindow(true, d.Horizon, d.Failure)
}

// startWindow opens a measurement window over the simulator's cohort:
// every alive non-source node. A switch window also freezes each
// member's undelivered S1 backlog (q0) for the ratio series.
func (s *Sim) startWindow(isSwitch bool, horizon int, failure bool) {
	var cohort []overlay.NodeID
	for _, n := range s.nodes {
		if !n.alive || n.isSource {
			continue
		}
		if isSwitch {
			n.q0 = n.undeliveredIn(n.WindowLo(), s.s1End)
		}
		cohort = append(cohort, n.id)
	}
	s.win.Open(WindowHeader{
		Index: len(s.res.Windows), Tick: s.tick, Nodes: s.dir.AliveCount(), Horizon: horizon,
		Switch: isSwitch, Session: s.newSessionIdx,
		OldSource: s.oldSource, NewSource: s.newSource, Failure: failure,
	}, cohort)
	if s.cfg.TrackRatios && isSwitch {
		m := s.win.Metrics()
		m.UndeliveredS1 = &stats.Series{Label: "undelivered-S1"}
		m.DeliveredS2 = &stats.Series{Label: "delivered-S2"}
	}
}

// endWindow closes the open window at the current tick (no-op when none
// is open) and appends it to Result.Windows.
func (s *Sim) endWindow(interrupted bool) {
	if m := s.win.Close(s.tick, interrupted); m != nil {
		s.res.Windows = append(s.res.Windows, m)
	}
}

// simFacts answers the resolver's per-node questions and the server's
// requester questions from the simulated world, exactly.
type simFacts Sim

func (f *simFacts) Alive(id overlay.NodeID) bool          { return f.nodes[id].alive }
func (f *simFacts) Sourced(id overlay.NodeID) bool        { return f.nodes[id].isSource }
func (f *simFacts) MaxSeen(id overlay.NodeID) segment.ID  { return f.nodes[id].buf.MaxSeen() }
func (f *simFacts) WindowLo(id overlay.NodeID) segment.ID { return f.nodes[id].WindowLo() }

// Takes: the requester is alive, has inbound left after this queue's
// grants, lacks the segment and has no grant of it pending.
func (f *simFacts) Takes(r Request, granted int32) bool {
	req := f.nodes[r.From]
	return req.alive && req.in.Available() >= int(granted)+1 && !req.buf.Has(r.Seg) && !req.ledger.Has(r.Seg)
}

// LinkGrants is the requester-side counter of the link; commit refunds it
// when the requester's inbound was over-subscribed.
func (f *simFacts) LinkGrants(r Request) *int32 { return &f.nodes[r.From].linkGrants[r.Link] }

// Profile is node id's drawn bandwidth profile, before any bandwidth
// shift. With Side, it is what a check that two backends resolved the
// same experiment reads.
func (s *Sim) Profile(id overlay.NodeID) bandwidth.Profile { return s.nodes[id].base }

// Side is node id's side of the active partition (netmodel.Model.Side),
// 0 without one.
func (s *Sim) Side(id overlay.NodeID) int {
	if s.net == nil {
		return 0
	}
	return s.net.Side(id)
}

// shiftBandwidth rescales every non-source node's rates to factor times
// its base profile (sources keep their boosted outbound; nodes that have
// not arrived yet shift too, so they join at the shifted rate).
func (s *Sim) shiftBandwidth(factor float64) {
	s.bwFactor = factor
	for _, n := range s.nodes {
		if n.isSource {
			continue
		}
		s.applyShift(n)
	}
}

// applyShift sets a node's working profile to base × the current shift
// (factor 1 restores the baseline exactly).
func (s *Sim) applyShift(n *nodeState) {
	if n.isSource {
		return
	}
	n.profile = bandwidth.Profile{In: n.base.In * s.bwFactor, Out: n.base.Out * s.bwFactor}
	n.in.SetRate(n.profile.In)
	n.out.SetRate(n.profile.Out)
}

// linkCap is the per-period grant capacity of each of j's links in the
// per-link substrate.
func (s *Sim) linkCap(j *nodeState) int {
	return LinkCap(LinkRate(j.out.Rate(), false))
}

// phaseRecord appends the tick's aggregate ratio points (bit counters
// are updated inline by the other phases) and closes the open window
// when its cohort completed or its horizon ran out.
func (s *Sim) phaseRecord() {
	if !s.win.Active() {
		return
	}
	s.recordTick()
	if s.win.Due(s.tick) {
		s.endWindow(false)
	}
}

// recordTick appends the open switch window's ratio points (TrackRatios
// only): Σ Q1/Σ Q0 and Σ (Qs−Q2)/Σ Qs over the surviving cohort.
func (s *Sim) recordTick() {
	m := s.win.Metrics()
	if m.UndeliveredS1 == nil {
		return
	}
	var q1Sum, q0Sum, d2Sum, qsSum int
	qs := segment.ID(s.cfg.Qs)
	for _, mb := range s.win.members {
		n := s.nodes[mb.id]
		if !n.alive || n.q0 == unset {
			continue
		}
		q0Sum += n.q0
		if n.q0 > 0 {
			lo := n.WindowLo()
			if lo > s.s1End {
				// Finished or moved past S1 — nothing undelivered remains.
			} else {
				q1 := n.undeliveredIn(lo, s.s1End)
				if q1 > n.q0 {
					q1 = n.q0
				}
				q1Sum += q1
			}
		}
		q2 := n.undeliveredIn(s.s2Begin, s.s2Begin+qs-1)
		d2Sum += s.cfg.Qs - q2
		qsSum += s.cfg.Qs
	}
	t := s.win.since(s.tick)
	if q0Sum > 0 {
		m.UndeliveredS1.Append(t, float64(q1Sum)/float64(q0Sum))
	}
	if qsSum > 0 {
		m.DeliveredS2.Append(t, float64(d2Sum)/float64(qsSum))
	}
}

// finalize closes the transport's whole-run ledger.
func (s *Sim) finalize() {
	if s.net != nil {
		s.res.Audit = &NetAudit{
			Injected:   s.audInjected,
			Delivered:  s.audDelivered,
			Lost:       s.audLost,
			Severed:    s.audSevered,
			Evaporated: s.audEvap,
			InFlight:   int64(s.net.InFlight()),
		}
	}
}
