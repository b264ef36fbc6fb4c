package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/membership"
	"gossipstream/internal/netmodel"
	"gossipstream/internal/obs"
	"gossipstream/internal/overlay"
	"gossipstream/internal/scenario"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim"
)

// Options tune a live run.
type Options struct {
	// Transport carries the frames; nil selects the in-process channel
	// transport. A runner closes only the transport it created: a caller
	// that passes one closes it itself (the cluster keeps its transport
	// open past FinishShard, for the report exchange).
	Transport Transport
	// TimeScale compresses scenario time onto the wall clock: a run at
	// TimeScale 50 executes one τ=1s scheduling period every 20ms of
	// wall time. 0 selects the default (50). 1 is real time — the pace
	// an actual deployment would run at.
	TimeScale float64

	// Obs attaches the run's observability sinks (metrics registry,
	// JSONL trace — see internal/obs). Observational only; nil disables.
	Obs *obs.Obs
	// StatsEvery prints a periodic execution-stats line through Logf
	// every StatsEvery scheduling periods (0 disables). The line carries
	// the transport counters including kernel UDP receive drops.
	StatsEvery int
	// Logf receives the periodic stats lines (nil disables them).
	Logf func(format string, args ...any)
}

// DefaultTimeScale is the time compression a live run uses when
// Options.TimeScale is zero.
const DefaultTimeScale = 50

// LiveStats describes how the wall-clock execution went — the numbers
// that have no simulator counterpart.
type LiveStats struct {
	// WallDuration is the elapsed wall time of the run.
	WallDuration time.Duration
	// Periods is the number of scheduling periods executed.
	Periods int
	// Overruns counts periods whose processing outlasted the configured
	// period length (the scheduler stretches rather than dropping
	// ticks, so overruns slow the wall clock but do not skew the
	// scenario-time metrics).
	Overruns int
	// Transport is the cumulative data-plane account.
	Transport TransportStats
	// Delivered counts the segments peers landed, Dupes the data frames
	// for a segment the peer already held (dropped on arrival), and
	// Denies the denies peers received while the request was in flight —
	// a supplier's refusal the requester retried elsewhere or refunded.
	Delivered, Dupes, Denies int64
}

// peerHandle is the runner's view of one spawned peer.
type peerHandle struct {
	p        *peer
	running  bool // goroutine live (false after quit)
	active   bool // participating (past its staggered start, not dead)
	isSource bool // holds or held the source role (cleared by demote)
}

// Runner executes one scenario as a live system: peers as goroutines
// wired by a Transport, a wall-clock scheduler in place of the
// simulator's tick loop, and the scenario's event timeline fired on the
// wall clock through the control plane and the transport's LinkPolicy.
// It collects the same SwitchMetrics windows the simulator reports, in
// scenario seconds, so sim and live runs of one scenario read
// identically.
type Runner struct {
	sc  *scenario.Scenario
	cfg sim.Config // the simulator compilation of sc
	opt Options

	tr     Transport
	ownTr  bool          // tr was created here (Options.Transport nil): shutdown closes it
	policy *lockedPolicy // nil without the network model

	// g is the local overlay. resolver makes every resolution decision
	// (sim.Resolver, shared with the simulator) and dir is its membership
	// directory; only the process that resolves consults them.
	g        *overlay.Graph
	resolver *sim.Resolver
	dir      *membership.Directory

	// tl is the run's source sessions, as the simulator keeps them.
	tl *segment.Timeline

	events    []sim.Event
	nextEvent int
	duration  int
	earlyExit bool

	peers   map[overlay.NodeID]*peerHandle
	lastRep map[overlay.NodeID]report
	reports chan report

	// Sharding: a single-process run owns every node (shard 0 of 1); a
	// multi-process run owns ids congruent to shard mod shards and is
	// driven tick by tick through the StartShard/TickShard/Apply API.
	// roles is the global ledger of source-role holders, kept by every
	// process (departures are the directory's).
	shard, shards int
	roles         map[overlay.NodeID]bool

	// Failover state (see failover.go): owner overrides for peers
	// reassigned off a dead shard (consulted before the id-mod-shards
	// rule), and the bandwidth-profile ledger every process keeps for
	// every node so a respawn directive can restate a peer's profile
	// without an RNG draw. The overrides are copied on write: a cluster
	// routes every peer frame by OwnerOf, from the peers' goroutines,
	// while the run loop applies reassignments.
	owner   atomic.Pointer[map[overlay.NodeID]int]
	profile map[overlay.NodeID]bandwidth.Profile

	bwFactor float64

	tick int
	ran  bool
	err  error
	// nextWall is the wall-clock deadline of the period in progress
	// (see Pace).
	nextWall time.Time

	// win is the measurement window (sim.Window); statsOpen holds the
	// transport counters at its opening, for the window's deltas.
	win       sim.Window
	statsOpen TransportStats
	res       *sim.Result

	stats LiveStats

	// Observability (see obs.go). statsCache holds the last sampled
	// transport counters — Transport.Stats is expensive on UDP, so the
	// runner reads it every transportSampleEvery periods, not every tick.
	obs            *runnerObs
	statsCache     TransportStats
	statsCacheTick int
}

// FromScenario compiles a scenario into a live run, reusing the exact
// sim.Config the simulator would execute — one compilation path
// (scenario.Scenario.Config), so topology, profiles, parameters and
// the event timeline cannot drift between the two backends — and
// binding it to a transport instead of the phase pipeline. The
// scenario's tick schedule becomes a wall-clock schedule at
// Options.TimeScale. A nil factory runs the fast switch, as
// scenario.Scenario.Config compiles it.
func FromScenario(sc *scenario.Scenario, factory sim.AlgorithmFactory, opt Options) (*Runner, error) {
	if opt.TimeScale == 0 {
		opt.TimeScale = DefaultTimeScale
	}
	if opt.TimeScale < 0 {
		return nil, fmt.Errorf("runtime: negative TimeScale %v", opt.TimeScale)
	}
	cfg, err := sc.Config(factory)
	if err != nil {
		return nil, err
	}

	transport := opt.Transport
	ownTr := transport == nil
	if ownTr {
		transport = NewChanTransport(sc.Seed ^ 0x11fe)
	}
	r := &Runner{
		sc:       sc,
		cfg:      cfg,
		opt:      opt,
		tr:       transport,
		ownTr:    ownTr,
		g:        cfg.Graph,
		peers:    make(map[overlay.NodeID]*peerHandle),
		lastRep:  make(map[overlay.NodeID]report),
		reports:  make(chan report, 4096),
		shards:   1,
		roles:    make(map[overlay.NodeID]bool),
		profile:  make(map[overlay.NodeID]bandwidth.Profile),
		bwFactor: 1,
		res:      &sim.Result{Algorithm: cfg.NewAlgorithm().Name()},

		statsCacheTick: -1,
	}
	r.resolver = sim.NewResolver(cfg, (*runnerFacts)(r))
	r.dir = r.resolver.Directory()
	if opt.Obs != nil {
		r.obs = newRunnerObs(opt.Obs)
		r.win = sim.NewWindow(sim.Tau, r.obs.trace, r.obs.windows)
	} else {
		r.win = sim.NewWindow(sim.Tau, nil, nil)
	}
	if cfg.Net != nil {
		// The same trace-derived delay/loss/partition state machine the
		// transit phase would drain, shared with the shaped transports.
		r.policy = &lockedPolicy{m: netmodel.New(*cfg.Net, sim.Tau)}
		transport.SetPolicy(r.policy)
		// The time compression applies from now on, not from the first
		// period: a cluster's control frames cross the transport before it.
		transport.SetTick(0, 1/opt.TimeScale)
	}

	r.events, r.duration, r.earlyExit = cfg.Script.Schedule(cfg.HorizonTicks)
	return r, nil
}

// Stats returns the wall-clock execution account (valid after Run).
func (r *Runner) Stats() LiveStats { return r.stats }

// PathImpaired reports whether the run's own network model explains
// silence between nodes a and b right now: the policy is lossy at the
// current period (a baseline-loss scenario or an active loss burst) or
// severs the pair (an unhealed partition). Every such fault was scripted,
// so the cluster's failure detector excuses the silence it causes. False
// without a network model.
func (r *Runner) PathImpaired(a, b overlay.NodeID) bool {
	if r.policy == nil {
		return false
	}
	return r.policy.LossProb(r.tick) > 0 || r.policy.Blocked(a, b)
}

// Run executes the scenario in this process — the one-shard case of the
// shard API the cluster drives: start shard 0 of 1, then per period fire
// the due events, tick the peers, churn and pace the wall clock. Like
// the simulator, the run ends at the script duration — or earlier, once
// every event fired and every measurement window closed, when the
// duration was auto-derived.
func (r *Runner) Run() (*sim.Result, error) {
	start := time.Now()
	if err := r.StartShard(0, 1); err != nil {
		return nil, err
	}
	defer func() { r.stats.WallDuration = time.Since(start) }()
	for r.tick < r.duration {
		r.fireEvents()
		if r.err == nil && r.TickShard() == nil {
			if d := r.ResolveChurnStep(); d != nil {
				r.err = r.Apply(d)
			}
		}
		if r.err != nil {
			r.shutdown()
			return nil, r.err
		}
		if r.earlyExit && !r.win.Active() && r.nextEvent >= len(r.events) {
			break
		}
		r.Pace()
	}
	return r.FinishShard(), nil
}

// PeriodWall is the wall-clock length of one scheduling period at the
// run's TimeScale.
func (r *Runner) PeriodWall() time.Duration {
	return time.Duration(float64(time.Second) * sim.Tau / r.opt.TimeScale)
}

// Pace ends a period on the wall clock — the one pacing step of every
// driving loop (Run, the cluster coordinator, the cluster agents). It
// sleeps until the period's deadline; when the host could not complete
// the period's work in time it stretches the wall clock instead of
// dropping ticks: the schedule re-anchors at now and the period counts
// as an overrun.
func (r *Runner) Pace() {
	r.nextWall = r.nextWall.Add(r.PeriodWall())
	if d := time.Until(r.nextWall); d > 0 {
		time.Sleep(d)
		return
	}
	r.nextWall = time.Now()
	r.stats.Overruns++
}

// spawnInitial builds the whole population from the synthesized trace:
// the first source streaming from segment 0, everyone else staggered
// over the scenario's spread — the same assembly the simulator runs.
func (r *Runner) spawnInitial() error {
	n := r.g.N()
	profiles, startTicks := r.cfg.Arrivals()

	first := r.cfg.FirstSource
	r.tl = segment.NewTimeline(segment.SourceID(first))
	sessions := r.tl.Sessions()
	r.roles[first] = true

	for i := 0; i < n; i++ {
		id := overlay.NodeID(i)
		// The profile ledger records every node's draw regardless of
		// ownership — the profiles slice is seed-identical on every
		// process, and a failover respawn restates it from here.
		r.profile[id] = profiles[i]
		if !r.owns(id) {
			continue
		}
		spec := spawnSpec{
			id:        id,
			profile:   profiles[i],
			bwFactor:  1,
			startTick: startTicks[i],
			neighbors: r.g.Neighbors(id),
			sessions:  sessions,
			mySession: -1,
			seed:      r.sc.Seed ^ (int64(id)+1)*0x9e37_79b9,
			known:     1,
		}
		if id == first {
			spec.isSource = true
			spec.mySession = 0
		}
		if err := r.spawn(spec); err != nil {
			return err
		}
	}
	return nil
}

// spawn opens a transport endpoint and starts one peer goroutine.
func (r *Runner) spawn(spec spawnSpec) error {
	ep, err := r.tr.Open(spec.id)
	if err != nil {
		return err
	}
	p := newPeer(spec, r.cfg.PeerParams(), r.cfg.NewAlgorithm(), ep, r.reports)
	h := &peerHandle{
		p:        p,
		running:  true,
		active:   spec.startTick == 0 || spec.isSource,
		isSource: spec.isSource,
	}
	r.peers[spec.id] = h
	go p.run()
	return nil
}

// stopPeer stops an owned peer's goroutine and marks its cohort slot
// dead. The structural overlay repair happens at resolution time
// (Directory.Leave on the resolving process, a replayed graph delta on
// the others); the caller refreshes neighbor lists afterwards. Unowned
// ids are a no-op — their shard applies the same directive.
func (r *Runner) stopPeer(id overlay.NodeID) {
	h, ok := r.peers[id]
	if !ok || !h.running {
		return
	}
	h.running = false
	h.active = false
	h.p.ctrlCh <- ctrlMsg{kind: ctrlQuit}
	if k := r.win.Slot(id); k >= 0 {
		r.win.Gone(k)
	}
}

// refreshNeighbors pushes every running peer's current adjacency list —
// the membership service's view — through the control plane.
func (r *Runner) refreshNeighbors() {
	for id, h := range r.peers {
		if !h.running {
			continue
		}
		nbs := append([]overlay.NodeID(nil), r.g.Neighbors(id)...)
		h.p.ctrlCh <- ctrlMsg{kind: ctrlNeighbors, neighbors: nbs}
	}
}

// shutdown stops every peer, and the transport when the runner created
// it.
func (r *Runner) shutdown() {
	for _, h := range r.peers {
		if h.running {
			h.running = false
			h.p.ctrlCh <- ctrlMsg{kind: ctrlQuit}
		}
	}
	if r.ownTr {
		r.tr.Close()
	}
}

// observe folds one per-period report into the runner's state and the
// measurement window. Bit accounting covers the whole mesh, like the
// simulator's phase-level counters; re-requests count only under a
// shaping policy, like the Net* counters (see endWindow).
func (r *Runner) observe(rep report) {
	r.lastRep[rep.id] = rep
	if h, ok := r.peers[rep.id]; ok && h.running {
		h.active = rep.alive
	}
	if ob := r.obs; ob != nil {
		ob.holes.Add(int64(rep.stalled))
		ob.reReqs.Add(int64(rep.reReqs))
	}
	r.win.AddBits(rep.mapBits, rep.dataBits)
	r.stats.Delivered += rep.dataBits / bandwidth.BitsForSegments(1)
	r.stats.Dupes += int64(rep.dupes)
	r.stats.Denies += int64(rep.denies)
	if r.policy != nil {
		r.win.AddReRequests(int64(rep.reReqs))
	}
	if k := r.win.Slot(rep.id); k >= 0 {
		if !rep.alive {
			r.win.Gone(k)
		}
		st := sim.PlaybackStep{Played: rep.played, Stalled: rep.stalled, Started: rep.started, Finished: rep.finished}
		r.win.Step(k, rep.period, st, rep.prepared == r.tl.Len()-1)
	}
}

// activeListener reports whether a node is a running, arrived,
// non-source peer — the cohort eligibility rule.
func (r *Runner) activeListener(id overlay.NodeID) bool {
	h, ok := r.peers[id]
	return ok && h.running && h.active && !h.isSource
}

// startWindow opens a measurement window over this shard's cohort: its
// active listeners.
func (r *Runner) startWindow(isSwitch bool, horizon int, failure bool) {
	var cohort []overlay.NodeID
	for id := range r.peers {
		if r.activeListener(id) {
			cohort = append(cohort, id)
		}
	}
	h := sim.WindowHeader{Index: len(r.res.Windows), Tick: r.tick, Nodes: r.activeCount(), Horizon: horizon}
	if isSwitch {
		sessions := r.tl.Sessions()
		last := len(sessions) - 1
		h.Switch, h.Session, h.Failure = true, last, failure
		h.OldSource = overlay.NodeID(sessions[last-1].Source)
		h.NewSource = overlay.NodeID(sessions[last].Source)
	}
	r.win.Open(h, cohort)
	if r.policy != nil {
		r.statsOpen = r.tr.Stats()
	}
	if ob := r.obs; ob != nil {
		ob.windowOpen.Set(1)
	}
}

// endWindow closes the open window at the current period (no-op when
// none is open). Under a shaping policy it first adds the window's
// transport deltas; without one those counters would report the
// in-process transport's mechanics, which have no simulator
// counterpart.
func (r *Runner) endWindow(interrupted bool) {
	if !r.win.Active() {
		return
	}
	if r.policy != nil {
		st := r.tr.Stats()
		r.win.AddNet(st.DataDelivered-r.statsOpen.DataDelivered, st.DataLost-r.statsOpen.DataLost,
			st.DelayScenarioMS-r.statsOpen.DelayScenarioMS)
	}
	r.res.Windows = append(r.res.Windows, r.win.Close(r.tick, interrupted))
	if ob := r.obs; ob != nil {
		ob.windowOpen.Set(0)
	}
}

func (r *Runner) activeCount() int {
	n := 0
	for _, h := range r.peers {
		if h.running && h.active {
			n++
		}
	}
	return n
}

// lockedPolicy wraps the run's netmodel.Model so transport goroutines
// (reads) and the runner's event firing (mutations) can share it. It is
// the live runtime's instance of the transit seam: the same Model state
// machine the simulator's heaps consult, behind the same LinkPolicy
// surface.
type lockedPolicy struct {
	mu sync.RWMutex
	m  *netmodel.Model
}

func (l *lockedPolicy) DelayMS(a, b overlay.NodeID, jitterMS float64) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.m.DelayMS(a, b, jitterMS)
}

func (l *lockedPolicy) JitterMS() float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.m.JitterMS()
}

func (l *lockedPolicy) LossProb(tick int) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.m.LossProb(tick)
}

func (l *lockedPolicy) Blocked(a, b overlay.NodeID) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.m.Blocked(a, b)
}

// mutate runs one event mutation under the write lock.
func (l *lockedPolicy) mutate(f func(m *netmodel.Model)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f(l.m)
}

var _ netmodel.LinkPolicy = (*lockedPolicy)(nil)
