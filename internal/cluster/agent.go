package cluster

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"gossipstream/internal/chaos"
	"gossipstream/internal/obs"
	"gossipstream/internal/runtime"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

// JoinConfig parameterizes a joining process.
type JoinConfig struct {
	Starter string // the starter node's control address (host:port)
	Token   string // shared HMAC secret
	Seed    int64  // seeds the process's shaping draws (any value; 0 is fine)
	Logf    func(format string, args ...any)

	// Obs, Debug and StatsEvery mirror Config: instrument the shard's
	// runner and control link, serve the debug HTTP endpoint, print
	// periodic stats lines.
	Obs        *obs.Obs
	Debug      string
	StatsEvery int

	// Chaos, when set, injects this process's share of a scripted fault
	// plan at the agent's seams (see internal/chaos): a kill aborts the
	// shard and Join returns chaos.ErrKilled, a hang wedges the run
	// loop, drop-acks and delay-reports degrade the control streams.
	// The plan is shard-addressed and the injector is built after the
	// welcome assigns this process its shard, so every joiner can carry
	// the same plan without knowing its slot in advance.
	Chaos *chaos.Plan
}

// ErrFenced is returned by Join when the coordinator declared this
// shard dead and fenced it off: the shard's peers were handed to the
// survivors, so continuing would split the brain.
var ErrFenced = errors.New("cluster: fenced by coordinator (shard declared dead)")

func (c *JoinConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Join runs one joining process end to end: knock on the starter until
// welcomed, compile the scenario the welcome carries, drive the
// assigned shard tick by tick applying broadcast directives, and ship
// the shard's windows back. Returns the shard-local result (the merged
// run lives at the starter).
func Join(cfg JoinConfig) (*sim.Result, error) {
	if cfg.Debug != "" && cfg.Obs == nil {
		cfg.Obs = &obs.Obs{Reg: obs.NewRegistry()}
	}
	// The one socket binds before the hello: the welcome, the shard's
	// peers and its control traffic all arrive on it.
	tr := runtime.NewUDPTransport(cfg.Seed ^ 0x11fe)
	defer tr.Close()
	l, err := newLink(tr, "", -1, cfg.Token, cfg.logf)
	if err != nil {
		return nil, err
	}
	defer l.close()
	l.setObs(cfg.Obs)

	w, ackWelcome, err := awaitWelcome(cfg, l, codecVersion)
	if err != nil {
		return nil, err
	}
	cfg.logf("cluster: joined %s as shard %d/%d", cfg.Starter, w.Shard, w.Shards)

	sc, err := scenario.Parse(strings.NewReader(w.Scenario))
	if err != nil {
		return nil, fmt.Errorf("cluster: welcome scenario: %w", err)
	}
	l.setShard(w.Shard)
	l.table.store(w.Addrs)

	r, err := runtime.FromScenario(sc, algoFactory(w.Algo), runtime.Options{
		Transport: tr, TimeScale: w.TimeScale,
		Obs: cfg.Obs, StatsEvery: cfg.StatsEvery, Logf: cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	l.routePeers(r)
	if cfg.Debug != "" {
		dbg, err := startClusterDebug(cfg.Debug, cfg.Obs, r, nil)
		if err != nil {
			return nil, err
		}
		defer dbg.Close()
		cfg.logf("cluster: debug endpoint on http://%s", dbg.Addr())
	}
	ackWelcome()

	start, err := awaitStart(l)
	if err != nil {
		return nil, err
	}
	l.table.store(start.Addrs)
	if err := r.StartShard(w.Shard, w.Shards); err != nil {
		return nil, err
	}
	var inj *chaos.Injector
	if cfg.Chaos != nil {
		inj = chaos.NewInjector(cfg.Chaos, w.Shard)
		l.setChaosDrop(func(kind runtime.FrameKind) bool {
			return kind == runtime.FrameAck && inj.DropAcksActive()
		})
	}
	a := &agent{cfg: cfg, l: l, r: r, shard: w.Shard, inj: inj}
	return a.run()
}

// awaitWelcome retries the hello, at the given codec version, until the
// coordinator's welcome arrives; the returned ack closure must be called
// once the agent is ready to receive sequenced traffic under its
// assigned shard. A coordinator of another version answers with its own
// hello instead, and the join fails naming both versions.
func awaitWelcome(cfg JoinConfig, l *link, version uint8) (*Welcome, func(), error) {
	hello := &Hello{Version: version, Addr: l.addr}
	deadline := time.After(5 * time.Minute)
	t := time.NewTicker(helloEvery)
	defer t.Stop()
	if err := l.sendHello(cfg.Starter, hello); err != nil {
		return nil, nil, err
	}
	for {
		select {
		case m := <-l.inbox:
			switch p := m.P.(type) {
			case *Welcome:
				return p, m.Ack, nil
			case *Hello:
				if p.Version != version {
					return nil, nil, fmt.Errorf("cluster: %s refused the join: it speaks control codec version %d, this process version %d",
						cfg.Starter, p.Version, version)
				}
			}
		case <-t.C:
			if err := l.sendHello(cfg.Starter, hello); err != nil {
				return nil, nil, err
			}
		case <-deadline:
			return nil, nil, fmt.Errorf("cluster: no welcome from %s", cfg.Starter)
		}
	}
}

// awaitStart waits for the coordinator's opening gun (sent once every
// worker joined), which carries the complete shard table.
func awaitStart(l *link) (*Start, error) {
	deadline := time.After(5 * time.Minute)
	for {
		select {
		case m := <-l.inbox:
			m.Ack()
			if s, ok := m.P.(*Start); ok {
				return s, nil
			}
		case <-deadline:
			return nil, fmt.Errorf("cluster: run never started")
		}
	}
}

// agent is a joined worker's run loop state.
type agent struct {
	cfg   JoinConfig
	l     *link
	r     *runtime.Runner
	shard int
	inj   *chaos.Injector

	appliedSeq uint64
	finishing  bool
}

// run drives the shard: apply queued directives in sequence, tick the
// owned peers, report status — until the finish directive (or the
// scripted duration as the severed-control-plane fallback).
func (a *agent) run() (*sim.Result, error) {
	r := a.r
	periodWall := r.PeriodWall()
	// The fallback deadline: well past the scripted duration, so a
	// coordinator that died partitioned cannot wedge the process.
	fallback := time.Now().Add(time.Duration(r.Duration()+60)*periodWall + time.Minute)
	for r.CurrentTick() < r.Duration() && !a.finishing {
		a.l.tick.Store(int64(r.CurrentTick()))
		if inj := a.inj; inj != nil {
			st := inj.Step(r.CurrentTick())
			if st.Kill {
				a.cfg.logf("cluster: shard %d: chaos kill at tick %d", a.shard, r.CurrentTick())
				r.Abort()
				return nil, chaos.ErrKilled
			}
			if st.HangTicks > 0 {
				a.cfg.logf("cluster: shard %d: chaos hang for %d ticks at tick %d", a.shard, st.HangTicks, r.CurrentTick())
				time.Sleep(time.Duration(st.HangTicks) * periodWall)
			}
		}
		if err := a.drainDirectives(); err != nil {
			r.Abort()
			return nil, err
		}
		if a.finishing {
			break
		}
		if err := r.TickShard(); err != nil {
			return nil, err
		}
		hs := r.HealthSample()
		status := &Status{
			Shard:      a.shard,
			Tick:       r.CurrentTick(),
			Idle:       r.Idle(),
			AppliedSeq: a.appliedSeq,
			Nodes:      r.ShardStatus(),
			Health:     &hs,
		}
		if del := a.statusDelay(); del > 0 {
			time.AfterFunc(time.Duration(del)*periodWall, func() { a.l.cast(0, status) })
		} else {
			a.l.cast(0, status)
		}
		if time.Now().After(fallback) {
			a.cfg.logf("cluster: shard %d hit its fallback deadline", a.shard)
			break
		}
		r.Pace()
	}
	if !a.finishing {
		// Scripted duration reached without a finish directive: wait a
		// grace period for one (the coordinator may simply be behind),
		// then finish alone.
		if err := a.awaitFinish(30 * time.Second); err != nil {
			r.Abort()
			return nil, err
		}
	}
	res := a.r.FinishShard()
	a.cfg.logf("cluster: shard %d finished at tick %d (%d windows)", a.shard, r.CurrentTick(), len(res.Windows))
	a.sendReport(res)
	return res, nil
}

// drainDirectives applies every queued control message without
// blocking. Sequenced messages arrive in order; each is acked after it
// is applied, so the coordinator's drain check sees applied state.
func (a *agent) drainDirectives() error {
	for {
		select {
		case m := <-a.l.inbox:
			if err := a.handle(m); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// handle applies one control message, then acks it.
func (a *agent) handle(m inMsg) error {
	defer m.Ack()
	if _, ok := m.P.(fence); ok {
		// The coordinator declared this shard dead and reassigned its
		// peers; stop immediately rather than fight the survivors.
		return ErrFenced
	}
	d, ok := m.P.(*runtime.Directive)
	if !ok {
		return nil
	}
	a.appliedSeq = m.Seq
	switch d.Kind {
	case runtime.DirStopSource:
		// Close the owned source's session and answer with its closing
		// segment id — an ordinary sequenced message to the coordinator.
		seg, ok := a.r.StopSource(d.Old)
		a.l.send(0, &S1End{Seg: seg, OK: ok})
		return nil
	case runtime.DirFinish:
		a.finishing = true
		return nil
	}
	return a.r.Apply(d)
}

// statusDelay asks the chaos injector how long to hold this tick's
// status cast back (0 without an injector or outside a delay window).
func (a *agent) statusDelay() int {
	if a.inj == nil {
		return 0
	}
	return a.inj.StatusDelay(a.r.CurrentTick())
}

// awaitFinish blocks on the inbox for a finish directive for at most
// the grace period. A fence is fatal; any other apply error just ends
// the wait (the shard finishes with what it has).
func (a *agent) awaitFinish(grace time.Duration) error {
	deadline := time.After(grace)
	for !a.finishing {
		select {
		case m := <-a.l.inbox:
			if err := a.handle(m); err != nil {
				if errors.Is(err, ErrFenced) {
					return err
				}
				return nil
			}
		case <-deadline:
			a.cfg.logf("cluster: shard %d: no finish directive within %v, finishing alone", a.shard, grace)
			return nil
		}
	}
	return nil
}

// sendReport ships every window back to the coordinator reliably (the
// retry loop carries them through whatever the policy still blocks).
func (a *agent) sendReport(res *sim.Result) {
	count := len(res.Windows)
	if count == 0 {
		a.l.send(0, &Report{Shard: a.shard, Algo: res.Algorithm, Count: 0})
	}
	for i, w := range res.Windows {
		a.l.send(0, &Report{Shard: a.shard, Algo: res.Algorithm, WindowIdx: i, Count: count, Window: w})
	}
	a.awaitAcks(defaultReportTimeout)
}

// awaitAcks polls until every reliable send toward the coordinator is
// acknowledged (or the timeout passes — nothing more to do then).
func (a *agent) awaitAcks(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if a.l.pendingEmpty(0) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}
