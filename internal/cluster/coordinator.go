package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gossipstream/internal/obs"
	"gossipstream/internal/runtime"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

// Config parameterizes a multi-process run from the starter side.
type Config struct {
	Scenario  *scenario.Scenario
	Algo      string  // algorithm name ("fast" or "normal"), shipped in the welcome
	Workers   int     // joining processes expected; the run spans Workers+1 shards
	TimeScale float64 // 0: runtime.DefaultTimeScale
	Token     string  // shared HMAC secret; every process must agree
	Listen    string  // starter control address (the one configured address)

	// Logf, when set, receives progress lines (worker joins, event
	// resolutions, the finish).
	Logf func(format string, args ...any)

	// Ready, when set, is called with the bound control address once the
	// starter is listening (tests and scripts joining against an
	// ephemeral port).
	Ready func(addr string)

	// Obs, when set, instruments the local shard and the control plane
	// (metrics registry, trace stream).
	Obs *obs.Obs

	// Debug, when non-empty, serves the debug HTTP endpoint on this
	// address for the duration of the run: /metrics, /healthz, /runz
	// (including the merged cluster health table) and /debug/pprof.
	Debug string

	// StatsEvery, when positive, prints a periodic stats line through
	// Logf every that many scheduling periods.
	StatsEvery int

	// Tuning overrides the coordinator's timeouts and failure-detector
	// thresholds; zero fields keep the production defaults. Fault tests
	// shrink these to seconds so a failover resolves inside a test run.
	Tuning Tuning
}

// Tuning bundles the coordinator's time and failure-detection knobs.
// The zero value means "use the defaults" for every field.
type Tuning struct {
	// ReportTimeout bounds the wait for worker reports after the finish
	// directive.
	ReportTimeout time.Duration // default 30s

	// SuspectAfter and DeadAfter are the failure detector's thresholds,
	// in coordinator ticks without a status from a shard: after
	// SuspectAfter missed ticks a shard is suspected (probed with
	// keepalive pings), after DeadAfter it is declared dead and failed
	// over. DeadAfter is clamped above SuspectAfter.
	SuspectAfter int // default 10
	DeadAfter    int // default 30
}

// withDefaults fills every zero field with its production default.
func (t Tuning) withDefaults() Tuning {
	if t.ReportTimeout <= 0 {
		t.ReportTimeout = defaultReportTimeout
	}
	if t.SuspectAfter <= 0 {
		t.SuspectAfter = DefaultSuspectAfter
	}
	if t.DeadAfter <= t.SuspectAfter {
		t.DeadAfter = t.SuspectAfter + DefaultDeadAfter - DefaultSuspectAfter
	}
	return t
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// algoFactory maps the wire algorithm name back to a factory — the
// same names cmd/live accepts.
func algoFactory(name string) sim.AlgorithmFactory {
	if name == "normal" {
		return sim.Normal
	}
	return sim.Fast
}

// defaultReportTimeout is the production default behind a zero
// Tuning.ReportTimeout.
const defaultReportTimeout = 30 * time.Second

// defaultJoinDeadline bounds the starter's wait for all Workers to join.
const defaultJoinDeadline = 5 * time.Minute

// Serve runs the starter node: listen for Workers joining processes,
// welcome each with the scenario and the shard table so far, release
// the shards with the complete table, drive shard 0 locally while
// resolving every scenario event and broadcasting the resolved
// directives, and finally merge the workers' windows with the local
// ones. Blocks for the whole run.
func Serve(cfg Config) (*sim.Result, runtime.LiveStats, error) {
	var stats runtime.LiveStats
	if cfg.Scenario == nil {
		return nil, stats, fmt.Errorf("cluster: nil scenario")
	}
	if cfg.Workers < 1 {
		return nil, stats, fmt.Errorf("cluster: need at least one worker (got %d)", cfg.Workers)
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = runtime.DefaultTimeScale
	}
	if cfg.Debug != "" && cfg.Obs == nil {
		cfg.Obs = &obs.Obs{Reg: obs.NewRegistry()}
	}
	cfg.Tuning = cfg.Tuning.withDefaults()
	sc := cfg.Scenario
	shards := cfg.Workers + 1
	if err := checkShardSize(sc.Nodes, shards); err != nil {
		return nil, stats, err
	}

	// One socket for the whole process: the control link and shard 0's
	// peers share the transport bound at cfg.Listen. The runner does not
	// close a transport it was handed, so the report exchange after
	// FinishShard still has it.
	tr := runtime.NewUDPTransport(sc.Seed ^ 0x11fe)
	defer tr.Close()
	l, err := newLink(tr, cfg.Listen, 0, cfg.Token, cfg.logf)
	if err != nil {
		return nil, stats, err
	}
	defer l.close()
	l.setObs(cfg.Obs)
	cfg.logf("cluster: coordinator listening on %s (%d shards)", l.addr, shards)
	if cfg.Ready != nil {
		cfg.Ready(l.addr)
	}

	workerShards, err := awaitWorkers(cfg, sc, l, shards)
	if err != nil {
		return nil, stats, err
	}

	r, err := runtime.FromScenario(sc, algoFactory(cfg.Algo), runtime.Options{
		Transport: tr, TimeScale: cfg.TimeScale,
		Obs: cfg.Obs, StatsEvery: cfg.StatsEvery, Logf: cfg.Logf,
	})
	if err != nil {
		return nil, stats, err
	}
	l.routePeers(r)

	// Shard 0 spawns before the workers are released: its peers are
	// attached before any worker's first advertisement reaches them, and
	// its set-up does not compete for the CPUs with peers already
	// ticking.
	if err := r.StartShard(0, shards); err != nil {
		return nil, stats, err
	}
	// Release the shards with the complete table: the start broadcast is
	// the run's opening gun.
	release := &Start{Workers: cfg.Workers, Addrs: l.table.snapshot()}
	for _, w := range workerShards {
		if err := l.send(w, release); err != nil {
			return nil, stats, err
		}
	}

	co := &coordinator{cfg: cfg, l: l, r: r, shards: shards, workers: workerShards,
		lastStatus: make(map[int]*Status),
		health:     make(map[int]*shardHealth),
		det: NewDetector(DetectorConfig{
			SuspectAfter: cfg.Tuning.SuspectAfter,
			DeadAfter:    cfg.Tuning.DeadAfter,
		}, workerShards),
		dead:  make(map[int]bool),
		pongs: make(map[int]bool),
	}
	co.obsSuspected = cfg.Obs.Registry().Counter("gossip_workers_suspected_total",
		"suspicion episodes opened by the cluster failure detector")
	co.obsFailovers = cfg.Obs.Registry().Counter("gossip_worker_failovers_total",
		"worker shards declared dead and failed over")
	co.obsReassigned = cfg.Obs.Registry().Counter("gossip_shards_reassigned_total",
		"dead shards whose orphaned peers were folded into survivors")
	co.obsRespawned = cfg.Obs.Registry().Counter("gossip_peers_respawned_total",
		"orphaned peers respawned on surviving shards after a failover")
	l.setOnPong(co.notePong)
	if cfg.Debug != "" {
		dbg, err := startClusterDebug(cfg.Debug, cfg.Obs, r, &co.healthPub)
		if err != nil {
			return nil, stats, err
		}
		defer dbg.Close()
		cfg.logf("cluster: debug endpoint on http://%s", dbg.Addr())
	}
	start := time.Now()
	res, err := co.run()
	stats = r.Stats()
	stats.WallDuration = time.Since(start)
	return res, stats, err
}

// checkShardSize refuses a run whose shards start too large for one
// control frame to carry a shard's per-tick status or a window report
// in which every node of the shard completed: such messages could not
// travel, and the run would stall or lose windows.
func checkShardSize(nodes, shards int) error {
	n := (nodes + shards - 1) / shards
	times := make([]float64, n)
	s := newSealer(nil)
	for _, m := range []any{
		&Status{Nodes: make([]runtime.NodeStatus, n), Health: &runtime.HealthSample{}},
		&Report{Algo: "normal", Window: &sim.SwitchMetrics{Kind: "measure",
			FinishS1Times: times, PrepareS2Times: times, StartS2Times: times}},
	} {
		if _, err := s.seal(runtime.Frame{Kind: runtime.FrameEvent}, m); err != nil {
			return fmt.Errorf("cluster: %d shards of up to %d nodes: a shard's control messages do not fit one frame (%w); run more workers", shards, n, err)
		}
	}
	return nil
}

// awaitWorkers accepts hellos until every expected worker is welcomed,
// assigning shards in join order (stably per address, so a retried
// hello keeps its slot) and recording each hello's address as its
// shard's.
func awaitWorkers(cfg Config, sc *scenario.Scenario, l *link, shards int) ([]int, error) {
	var text bytes.Buffer
	if err := sc.Write(&text); err != nil {
		return nil, err
	}
	assigned := make(map[string]int)
	var workers []int
	deadline := time.After(defaultJoinDeadline)
	for len(workers) < shards-1 {
		select {
		case m := <-l.inbox:
			h, ok := m.P.(*Hello)
			if !ok {
				continue
			}
			addr := h.Addr
			if h.Version != codecVersion {
				// Refuse: a hello of our own version tells the joiner
				// which version this run speaks. (Its error is an
				// address that does not parse: nobody to tell.)
				cfg.logf("cluster: refused joiner %s: control codec version %d, this run speaks %d", addr, h.Version, codecVersion)
				_ = l.sendHello(addr, &Hello{Version: codecVersion, Addr: l.addr})
				continue
			}
			if _, ok := assigned[addr]; ok {
				continue // duplicate hello: the pending welcome retry covers it
			}
			shard := len(workers) + 1
			assigned[addr] = shard
			workers = append(workers, shard)
			l.table.set(shard, addr)
			if err := l.send(shard, &Welcome{
				Shard:     shard,
				Shards:    shards,
				Scenario:  text.String(),
				TimeScale: cfg.TimeScale,
				Algo:      cfg.Algo,
				Addrs:     l.table.snapshot(),
			}); err != nil {
				return nil, fmt.Errorf("cluster: welcoming %s: %w", addr, err)
			}
			cfg.logf("cluster: worker %s joined as shard %d/%d", addr, shard, shards)
		case <-deadline:
			return nil, fmt.Errorf("cluster: only %d of %d workers joined", len(workers), shards-1)
		}
	}
	return workers, nil
}

// coordinator is the starter's run loop state.
type coordinator struct {
	cfg     Config
	l       *link
	r       *runtime.Runner
	shards  int
	workers []int

	lastStatus map[int]*Status

	// The merged cluster health view (see health.go): per-shard samples
	// from the status stream, plus the published table /runz reads.
	health    map[int]*shardHealth
	healthPub atomic.Pointer[healthTable]

	// The fail-stop machinery (see failover.go): the per-worker failure
	// detector, the set of shards already declared dead, keepalive pongs
	// collected from the transport's reader goroutine, and the counters.
	det    *Detector
	dead   map[int]bool
	pongMu sync.Mutex
	pongs  map[int]bool

	obsSuspected  *obs.Counter
	obsFailovers  *obs.Counter
	obsReassigned *obs.Counter
	obsRespawned  *obs.Counter

	// earlyReports buffers report messages that raced the finish (a
	// worker on its fallback deadline), so collectReports still sees
	// them after their ack.
	earlyReports []*Report

	// stopSwitch, a resolved planned switch whose old source lives on
	// shard stopDest, holds the event queue until that shard answers the
	// stop-source directive with stopEnd, the closing segment id.
	stopSwitch *runtime.Directive
	stopDest   int
	stopEnd    *S1End
}

// run drives shard 0 tick by tick, resolving events and broadcasting
// directives, until the duration (or the early exit) and then collects
// the merge.
func (c *coordinator) run() (*sim.Result, error) {
	r := c.r
	for r.CurrentTick() < r.Duration() {
		c.l.tick.Store(int64(r.CurrentTick()))
		c.drainInbox()
		if err := c.fireEvents(); err != nil {
			return nil, err
		}
		if err := r.TickShard(); err != nil {
			return nil, err
		}
		if d := r.ResolveChurnStep(); d != nil {
			c.broadcastApply(d)
		}
		c.healthTick(false)
		if err := c.detectTick(); err != nil {
			return nil, err
		}
		if r.EarlyExit() && c.drained() {
			break
		}
		r.Pace()
	}
	// The final health table: the last word on every shard before the
	// finish, including the cluster-wide drop totals the merged report
	// quotes.
	c.healthTick(true)
	if t := c.healthPub.Load(); t != nil {
		lost, inboxDropped, kernelDropped := t.dropTotals()
		c.cfg.logf("cluster: drop totals across %d shards: %d lost, %d inbox-dropped, %d kernel-dropped",
			c.shards, lost, inboxDropped, kernelDropped)
	}
	// The finish travels reliably: a worker that is still partitioned
	// receives it from the retry loop once its heal directive (queued
	// ahead in sequence) lands.
	for _, w := range c.workers {
		c.l.send(w, &runtime.Directive{Directive: sim.Directive{Kind: runtime.DirFinish}})
	}
	local := r.FinishShard()
	c.cfg.logf("cluster: shard 0 finished at tick %d, collecting reports", r.CurrentTick())
	parts, err := c.collectReports()
	if err != nil {
		return nil, err
	}
	// A worker that was not failed over yet never delivered a status ran
	// no period the coordinator saw; merging its report would pass the
	// run off as complete.
	for _, w := range c.workers {
		if c.lastStatus[w] == nil {
			return nil, fmt.Errorf("cluster: shard %d never delivered a status", w)
		}
	}
	return sim.MergeWindows(append([]*sim.Result{local}, parts...)), nil
}

// drainInbox folds queued worker messages (statuses, stray hellos)
// into the coordinator's view without blocking.
func (c *coordinator) drainInbox() {
	for {
		select {
		case m := <-c.l.inbox:
			c.handle(m)
		default:
			return
		}
	}
}

func (c *coordinator) handle(m inMsg) {
	defer m.Ack()
	// A shard already declared dead gets no say: its state was handed to
	// the survivors, so a late revival would split the brain. Fence it
	// (the cast tells a falsely-declared process to stop) and drop the
	// message on the floor — but still ack, to quiet its retry loop.
	if c.dead[m.From] {
		c.l.cast(m.From, fence{})
		return
	}
	switch p := m.P.(type) {
	case *Status:
		c.lastStatus[p.Shard] = p
		c.r.MergeStatus(p.Nodes)
		c.noteHealth(p.Shard, p.Health)
		if tr := c.det.Observe(p.Shard); tr != nil {
			c.cfg.logf("cluster: tick %d: shard %d recovered (suspicion cancelled)",
				c.r.CurrentTick(), p.Shard)
			c.traceFD("recovered", p.Shard)
		}
	case *Report:
		// A report can race the finish when a worker hits its fallback
		// deadline; buffer it so collectReports still sees it.
		c.earlyReports = append(c.earlyReports, p)
	case *S1End:
		if c.stopSwitch != nil && m.From == c.stopDest {
			c.stopEnd = p
		}
	}
}

// fireEvents resolves due events into directives and broadcasts them.
// A planned switch whose old source lives on another shard sends that
// shard a stop-source directive; the queue holds until its S1End answer
// arrives (or the failover turns the switch into a crash).
func (c *coordinator) fireEvents() error {
	r := c.r
	if d := c.stopSwitch; d != nil {
		end := c.stopEnd
		if end == nil {
			return nil // still waiting: hold the queue
		}
		c.stopSwitch, c.stopEnd = nil, nil
		if !end.OK {
			return fmt.Errorf("cluster: shard %d could not stop source node %d", c.stopDest, d.Old)
		}
		d.S1End = end.Seg
		r.PopEvent()
		c.broadcastApply(d)
	}
	for {
		ev, due := r.DueEvent()
		if !due {
			return nil
		}
		d, stop, err := r.ResolveEvent(ev)
		if err != nil {
			return err
		}
		if stop {
			owner := r.OwnerOf(d.Old)
			if c.dead[owner] {
				// The old source's worker died between ticks: make the
				// switch a crash handoff instead of calling a corpse.
				r.CrashSwitch(d)
				r.PopEvent()
				c.broadcastApply(d)
				continue
			}
			c.stopSwitch, c.stopDest = d, owner
			if err := c.l.send(owner, &runtime.Directive{Directive: sim.Directive{
				Kind: runtime.DirStopSource, Tick: d.Tick, Old: d.Old, New: d.New}}); err != nil {
				return err
			}
			c.cfg.logf("cluster: tick %d: stop-source to shard %d (node %d)", r.CurrentTick(), owner, d.Old)
			return nil // hold until the answer
		}
		r.PopEvent()
		if d == nil {
			continue // resolution-local (churn burst bounds)
		}
		c.broadcastApply(d)
	}
}

// broadcastApply ships one resolved directive to every worker and then
// applies it locally. The broadcast goes first for severing directives
// (the local partition would gate the send), and a heal applies
// locally first so the retry loop can reach still-partitioned workers;
// both orders are safe for everything else because resolution is
// already done.
func (c *coordinator) broadcastApply(d *runtime.Directive) {
	c.cfg.logf("cluster: tick %d: %s directive", c.r.CurrentTick(), d.KindName())
	wire := *d
	wire.Resolved = false // workers must replay the structural mutations
	if d.Kind == sim.DirHeal {
		c.r.Apply(d)
		for _, w := range c.workers {
			c.l.send(w, &wire)
		}
		return
	}
	for _, w := range c.workers {
		c.l.send(w, &wire)
	}
	c.r.Apply(d)
}

// drained reports whether the whole run is idle: local events and
// windows done, and every worker's last status idle with every
// broadcast directive applied (the sequence check defeats the
// stale-idle race where a worker reports idle just before a directive
// lands).
func (c *coordinator) drained() bool {
	if !c.r.Idle() || !c.r.EventsDone() || c.stopSwitch != nil {
		return false
	}
	for _, w := range c.workers {
		st := c.lastStatus[w]
		if st == nil || !st.Idle || st.AppliedSeq != c.l.lastSeq(w) {
			return false
		}
	}
	return true
}

// collectReports gathers every worker's windows (one message each,
// reliable) and reassembles per-shard results for the merge.
func (c *coordinator) collectReports() ([]*sim.Result, error) {
	type shardReport struct {
		algo    string
		count   int // -1 until the first message names it
		windows map[int]*sim.SwitchMetrics
	}
	got := make(map[int]*shardReport)
	for _, w := range c.workers {
		got[w] = &shardReport{count: -1, windows: make(map[int]*sim.SwitchMetrics)}
	}
	absorb := func(rep *Report) {
		if sr, ok := got[rep.Shard]; ok {
			sr.algo = rep.Algo
			sr.count = rep.Count
			if rep.Window != nil {
				sr.windows[rep.WindowIdx] = rep.Window
			}
		}
	}
	for _, rep := range c.earlyReports {
		absorb(rep)
	}
	complete := func() bool {
		for _, sr := range got {
			if sr.count < 0 || len(sr.windows) < sr.count {
				return false
			}
		}
		return true
	}
	deadline := time.After(c.cfg.Tuning.ReportTimeout)
	for !complete() {
		select {
		case m := <-c.l.inbox:
			rep, ok := m.P.(*Report)
			if !ok || c.dead[m.From] {
				c.handle(m)
				continue
			}
			absorb(rep)
			m.Ack()
		case <-deadline:
			return nil, fmt.Errorf("cluster: worker reports incomplete after %v", c.cfg.Tuning.ReportTimeout)
		}
	}
	var parts []*sim.Result
	for _, w := range c.workers {
		sr := got[w]
		res := &sim.Result{Algorithm: sr.algo}
		res.Windows = make([]*sim.SwitchMetrics, sr.count)
		for i := 0; i < sr.count; i++ {
			win, ok := sr.windows[i]
			if !ok {
				return nil, fmt.Errorf("cluster: shard %d window %d missing from report", w, i)
			}
			res.Windows[i] = win
		}
		parts = append(parts, res)
	}
	return parts, nil
}
