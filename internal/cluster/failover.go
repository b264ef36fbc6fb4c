package cluster

import (
	"sort"

	"gossipstream/internal/obs"
	"gossipstream/internal/overlay"
)

// Fail-stop tolerance. Failure detection rides the health gossip: every
// worker casts one status per tick, so the coordinator counts the ticks
// since each shard's last status. A shard that misses SuspectAfter
// consecutive ticks is *suspected* (and probed with keepalive pings),
// one that misses DeadAfter is *dead* — its orphaned peers are folded
// into the surviving shards (failover.go further down), and a fence
// keeps a falsely-declared process from ever rejoining.
//
// The detector is loss-burst aware: the coordinator resolved every
// scripted network fault itself, so while its own link policy can drop
// or sever the status stream (a lossburst or partition directive is in
// force) the counters freeze and no suspicion advances. A real crash
// during a scripted burst is therefore detected only after the burst
// ends — deliberate: a false failover is irreversible, a late one just
// stalls the reassignment by the burst length.

// The failure detector's default thresholds, in coordinator ticks.
const (
	DefaultSuspectAfter = 10
	DefaultDeadAfter    = 30
)

// FDState is one shard's position in the failure detector.
type FDState uint8

const (
	FDHealthy FDState = iota
	FDSuspected
	FDDead
)

func (s FDState) String() string {
	switch s {
	case FDHealthy:
		return "healthy"
	case FDSuspected:
		return "suspected"
	case FDDead:
		return "dead"
	}
	return "unknown"
}

// DetectorConfig holds the promotion thresholds, in ticks without a
// status. Zero fields take the defaults; DeadAfter is clamped above
// SuspectAfter so the two promotions can never fire out of order.
type DetectorConfig struct {
	SuspectAfter int
	DeadAfter    int
}

// Transition records one state change for the caller to act on.
type Transition struct {
	Shard    int
	From, To FDState
}

// Detector is the per-worker fail-stop detector. It is driven entirely
// from the coordinator's run loop (no internal locking): Observe on
// every status, Pong on every keepalive answer, Tick once per
// coordinator tick.
type Detector struct {
	cfg   DetectorConfig
	rows  map[int]*fdRow
	order []int // sorted shard ids, for deterministic Tick output
}

type fdRow struct {
	state  FDState
	missed int
	pong   bool
}

// NewDetector tracks the given worker shards. Rows start with a grace
// allowance of one DeadAfter period below zero, so a slow first status
// after the start broadcast cannot be mistaken for a crash.
func NewDetector(cfg DetectorConfig, shards []int) *Detector {
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = cfg.SuspectAfter + (DefaultDeadAfter - DefaultSuspectAfter)
	}
	d := &Detector{cfg: cfg, rows: make(map[int]*fdRow)}
	for _, s := range shards {
		d.rows[s] = &fdRow{missed: -cfg.DeadAfter}
		d.order = append(d.order, s)
	}
	sort.Ints(d.order)
	return d
}

// Observe records a fresh status from a shard: the miss counter resets
// and a suspected shard recovers. Returns the recovery transition when
// one happened (nil otherwise). Dead is terminal — a status from a dead
// shard is ignored here and fenced by the coordinator.
func (d *Detector) Observe(shard int) *Transition {
	row, ok := d.rows[shard]
	if !ok || row.state == FDDead {
		return nil
	}
	row.missed = 0
	row.pong = false
	if row.state == FDSuspected {
		row.state = FDHealthy
		return &Transition{Shard: shard, From: FDSuspected, To: FDHealthy}
	}
	return nil
}

// Pong records a keepalive answer. A pong is weaker than a status — the
// transport's reader goroutine answers pings even while the shard's run loop
// hangs — so it does not clear suspicion, but it caps the miss counter
// just below the death threshold: a hung-but-alive worker stays
// suspected indefinitely instead of being declared dead.
func (d *Detector) Pong(shard int) {
	row, ok := d.rows[shard]
	if !ok || row.state == FDDead {
		return
	}
	if row.missed >= d.cfg.DeadAfter-1 {
		row.missed = d.cfg.DeadAfter - 1
	}
	row.pong = true
}

// Tick advances every tracked shard by one coordinator tick and returns
// the promotions that fired, in shard order. excused reports whether a
// shard's silence is currently explained by the run's own scripted
// network faults; an excused shard's counter freezes.
func (d *Detector) Tick(excused func(shard int) bool) []Transition {
	var out []Transition
	for _, shard := range d.order {
		row := d.rows[shard]
		if row.state == FDDead {
			continue
		}
		if excused != nil && excused(shard) {
			continue
		}
		row.missed++
		if row.pong {
			row.pong = false
			if row.missed >= d.cfg.DeadAfter {
				row.missed = d.cfg.DeadAfter - 1
			}
		}
		switch {
		case row.state == FDHealthy && row.missed >= d.cfg.SuspectAfter:
			row.state = FDSuspected
			out = append(out, Transition{Shard: shard, From: FDHealthy, To: FDSuspected})
		case row.state == FDSuspected && row.missed >= d.cfg.DeadAfter:
			row.state = FDDead
			out = append(out, Transition{Shard: shard, From: FDSuspected, To: FDDead})
		}
	}
	return out
}

// State reports a shard's current detector state (healthy for shards
// the detector does not track, e.g. the coordinator's own shard 0).
func (d *Detector) State(shard int) FDState {
	if row, ok := d.rows[shard]; ok {
		return row.state
	}
	return FDHealthy
}

// Suspected returns the currently suspected shards in ascending order —
// the probe targets for the keepalive pings.
func (d *Detector) Suspected() []int {
	var out []int
	for _, shard := range d.order {
		if d.rows[shard].state == FDSuspected {
			out = append(out, shard)
		}
	}
	return out
}

// ---- coordinator side ----

// notePong collects a keepalive answer; called from the transport's reader
// goroutine, drained into the detector by detectTick.
func (c *coordinator) notePong(from int) {
	c.pongMu.Lock()
	c.pongs[from] = true
	c.pongMu.Unlock()
}

// excused reports whether a shard's silence is currently explained by
// the run's own scripted network faults: the coordinator's link policy
// is lossy (a baseline-loss scenario or an active lossburst directive)
// or severs the path to that shard (an unhealed partition). Both were
// resolved by this coordinator, so freezing the detector on them is
// deterministic — a scripted fault can never trigger a false failover.
func (c *coordinator) excused(shard int) bool {
	return c.r.PathImpaired(0, overlay.NodeID(shard))
}

// detectTick runs one failure-detector step: drain the pongs collected
// since the last tick, advance the counters, probe the suspected, and
// fail over the dead.
func (c *coordinator) detectTick() error {
	c.pongMu.Lock()
	for shard := range c.pongs {
		c.det.Pong(shard)
		delete(c.pongs, shard)
	}
	c.pongMu.Unlock()

	for _, tr := range c.det.Tick(c.excused) {
		switch tr.To {
		case FDSuspected:
			c.obsSuspected.Inc()
			c.cfg.logf("cluster: tick %d: shard %d suspected (no status for %d ticks), probing",
				c.r.CurrentTick(), tr.Shard, c.cfg.Tuning.SuspectAfter)
			c.traceFD("suspected", tr.Shard)
		case FDDead:
			if err := c.failover(tr.Shard); err != nil {
				return err
			}
		}
	}
	for _, shard := range c.det.Suspected() {
		c.l.probe(shard)
	}
	return nil
}

// traceFD emits one failure-detector trace event.
func (c *coordinator) traceFD(kind string, shard int) {
	c.cfg.Obs.Tracer().Emit(obs.TraceEvent{
		T: obs.EvFailover, Tick: c.r.CurrentTick(), Kind: kind, Dest: shard,
	})
}

// failover declares a worker shard dead and folds its orphaned peers
// into the survivors:
//
//  1. the shard leaves the control plane — pending sends toward it are
//     abandoned, its statuses and reports are ignored, and a fence cast
//     tells a falsely-declared process to stop;
//  2. the runner re-resolves the dead shard's peers from the merged
//     status view and the membership directory into reassignment
//     directives — plain listeners respawn on surviving shards anchored
//     at their neighborhood's frontier, dead role-holders (old sources)
//     leave the overlay with their edges repaired;
//  3. the directives broadcast on the same sequenced channel as every
//     other directive, so workers replay them in order;
//  4. if the dead shard owned the live source (or still owes the answer
//     to a stop-source directive), the switch resolves as a crash
//     handoff through the ordinary failure-switch machinery.
func (c *coordinator) failover(w int) error {
	r := c.r
	c.obsFailovers.Inc()
	c.cfg.logf("cluster: FAILOVER: tick %d: shard %d declared dead (no status for %d ticks), reassigning its peers",
		r.CurrentTick(), w, c.cfg.Tuning.DeadAfter)
	c.traceFD("dead", w)

	c.dead[w] = true
	live := c.workers[:0]
	for _, s := range c.workers {
		if s != w {
			live = append(live, s)
		}
	}
	c.workers = live
	delete(c.lastStatus, w)
	c.l.forget(w)
	c.l.cast(w, fence{})

	survivors := append([]int{0}, c.workers...)
	dirs, srcDied := r.ResolveFailover(w, survivors)
	c.obsReassigned.Inc()
	respawned := 0
	for _, d := range dirs {
		respawned += len(d.Respawns)
		c.broadcastApply(d)
	}
	c.obsRespawned.Add(int64(respawned))
	c.cfg.logf("cluster: tick %d: shard %d reassigned: %d peers respawned across %d survivors",
		r.CurrentTick(), w, respawned, len(survivors))

	if d := c.stopSwitch; d != nil && c.stopDest == w {
		// The stop-source answer died with its worker: the old source's
		// closing segment is unknowable, so resolve the held switch as a
		// crash handoff (the resolver estimates S1's end from the
		// cohort's high-water mark, exactly as a scripted failure switch
		// does).
		c.stopSwitch = nil
		r.CrashSwitch(d)
		r.PopEvent()
		c.broadcastApply(d)
	} else if srcDied {
		// The live source was owned by the dead shard: synthesize an
		// unscripted crash switch so the stream continues on a survivor.
		d, err := r.ResolveFailureSwitch()
		if err != nil {
			return err
		}
		c.broadcastApply(d)
	}
	return nil
}
