package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/sim"
	"gossipstream/internal/trace"
)

// Scenario is one named, self-contained experiment: topology parameters,
// base environment, and the event timeline.
type Scenario struct {
	// Name identifies the scenario (kebab-case; it also seeds the
	// synthesized topology's trace label).
	Name string
	// Desc is a one-line human description.
	Desc string

	// Nodes is the overlay size; M the per-node neighbor target after
	// random-edge augmentation (0 → 5, the paper's choice).
	Nodes int
	M     int
	// Seed drives the topology synthesis and every random decision of
	// the run.
	Seed int64

	// First pins the initial streaming source when positive; 0 (the
	// default) auto-picks the lowest-id minimum-degree node, the paper's
	// "source holding M connected neighbors". Negative is an error.
	First overlay.NodeID

	// Spread staggers initial arrivals over the first Spread ticks
	// (members assembling while the first source streams); 0 starts
	// everyone at once.
	Spread int
	// Horizon is the default measurement horizon of each switch window,
	// in ticks (0 → 150).
	Horizon int
	// Duration caps the run length in ticks; 0 derives it from the
	// timeline (every window gets room to reach its horizon).
	Duration int

	// ChurnLeave/ChurnJoin enable baseline churn (fractions per tick).
	ChurnLeave float64
	ChurnJoin  float64

	// PerLink selects the paper's per-link capacity model instead of the
	// shared-outbound substrate.
	PerLink bool
	// Qs overrides the new-stream startup threshold (0 → 50).
	Qs int

	// Net enables the message-level transport model (internal/netmodel):
	// per-link delivery delay derived from the synthesized trace's ping
	// times, per-message loss, and partition semantics. Required by the
	// latency/lossburst/partition/heal events.
	Net bool
	// NetLoss is the baseline per-message loss probability in [0, 1).
	NetLoss float64
	// NetJitterMS is the per-message uniform jitter amplitude in
	// milliseconds.
	NetJitterMS float64
	// NetPingMS is the ping of nodes without a trace record — churn
	// joiners and crowd members (0 → netmodel's default).
	NetPingMS int

	// Events is the timeline, in firing order.
	Events []sim.Event
}

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// Validate reports scenario errors.
func (sc *Scenario) Validate() error {
	if !nameRe.MatchString(sc.Name) {
		return fmt.Errorf("scenario: invalid name %q (want kebab-case)", sc.Name)
	}
	if sc.Nodes < 2 {
		return fmt.Errorf("scenario %s: need at least 2 nodes, have %d", sc.Name, sc.Nodes)
	}
	for _, p := range [...]struct {
		directive string
		v         int
	}{{"m", sc.M}, {"spread", sc.Spread}, {"horizon", sc.Horizon}, {"duration", sc.Duration}, {"qs", sc.Qs}} {
		if p.v < 0 {
			return fmt.Errorf("scenario %s: %s %d is negative", sc.Name, p.directive, p.v)
		}
	}
	if sc.Qs > sim.BufferCap {
		return fmt.Errorf("scenario %s: qs %d exceeds the buffer capacity B = %d: no node could ever gather the new stream's first qs segments",
			sc.Name, sc.Qs, sim.BufferCap)
	}
	if m := sc.minDegree(); m >= sc.Nodes {
		return fmt.Errorf("scenario %s: %d nodes cannot each hold M=%d neighbors", sc.Name, sc.Nodes, m)
	}
	// Non-finite floats would sail through the range checks below (NaN
	// fails both sides of every comparison) and then poison the run and
	// break round-trip equality, so reject them outright.
	for _, f := range [...]float64{sc.ChurnLeave, sc.ChurnJoin, sc.NetLoss, sc.NetJitterMS} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("scenario %s: non-finite parameter %v", sc.Name, f)
		}
	}
	if sc.ChurnLeave < 0 || sc.ChurnLeave >= 1 || sc.ChurnJoin < 0 || sc.ChurnJoin >= 1 {
		return fmt.Errorf("scenario %s: churn fractions (%v, %v) out of [0,1)", sc.Name, sc.ChurnLeave, sc.ChurnJoin)
	}
	if sc.NetLoss < 0 || sc.NetLoss >= 1 {
		return fmt.Errorf("scenario %s: net loss %v out of [0,1)", sc.Name, sc.NetLoss)
	}
	if sc.NetJitterMS < 0 {
		return fmt.Errorf("scenario %s: net jitter %v is negative", sc.Name, sc.NetJitterMS)
	}
	if sc.NetPingMS < 0 {
		return fmt.Errorf("scenario %s: net ping %d is negative", sc.Name, sc.NetPingMS)
	}
	script := sim.Script{Events: sc.Events, Duration: sc.Duration}
	if err := script.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if sc.First < 0 || int(sc.First) >= sc.Nodes {
		return fmt.Errorf("scenario %s: first %d out of [0, %d)", sc.Name, sc.First, sc.Nodes)
	}
	switches, demotes := 0, 0
	for i, ev := range sc.Events {
		if ev.Kind.NeedsNet() && !sc.Net {
			return fmt.Errorf("scenario %s: event %d (%s) requires the net directive", sc.Name, i, ev.Kind)
		}
		switch ev.Kind {
		case sim.EvSwitchSource:
			switches++
			if int(ev.To) >= sc.Nodes {
				return fmt.Errorf("scenario %s: event %d targets node %d of %d", sc.Name, i, ev.To, sc.Nodes)
			}
		case sim.EvDemoteSource:
			demotes++
			if int(ev.To) >= sc.Nodes {
				return fmt.Errorf("scenario %s: event %d demotes node %d of %d", sc.Name, i, ev.To, sc.Nodes)
			}
		}
	}
	// Every switch consumes one never-source node, plus one for the
	// initial source — but each demotion returns an ex-speaker to the
	// pool. Churn joins can relax this at run time, so it is a static
	// sanity bound, not the final word — the simulator reports exhaustion
	// as a run error.
	if switches-demotes >= sc.Nodes {
		return fmt.Errorf("scenario %s: %d switches cannot be served by %d nodes", sc.Name, switches, sc.Nodes)
	}
	return nil
}

// minDegree is the effective neighbor target: M, or the paper's 5.
func (sc *Scenario) minDegree() int { return orDefault(sc.M, 5) }

// orDefault is v, or def when v is unset (0).
func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// Scaled returns a copy sized to n nodes, with flash-crowd batch sizes
// rescaled proportionally and pinned switch targets clamped into range
// (dropped to the random pick when out of range). Used by tests, the CI
// smoke run and the -n CLI override to run big scenarios small.
func (sc *Scenario) Scaled(n int) *Scenario {
	out := *sc
	out.Events = make([]sim.Event, len(sc.Events))
	copy(out.Events, sc.Events)
	if n <= 0 || n == sc.Nodes {
		return &out
	}
	for i := range out.Events {
		ev := &out.Events[i]
		switch ev.Kind {
		case sim.EvFlashCrowd:
			if sc.Nodes > 0 {
				ev.Count = ev.Count * n / sc.Nodes
			}
			if ev.Count < 1 {
				ev.Count = 1
			}
		case sim.EvSwitchSource, sim.EvDemoteSource:
			if int(ev.To) >= n {
				ev.To = -1
			}
		}
	}
	if int(out.First) >= n {
		out.First = 0 // auto-pick
	}
	out.Nodes = n
	return &out
}

// Config validates the scenario, synthesizes its overlay (a Gnutella-like
// crawl trace augmented to min-degree M, the Section 5.1 preparation) and
// assembles the sim.Config, resolving every unset parameter to the
// paper's Section 5.1 value: qs 50, horizon 150, the auto-picked first
// source, and the fast switch when factory is nil. The result is
// complete; callers typically set Workers or TrackRatios on it before
// sim.New.
func (sc *Scenario) Config(factory sim.AlgorithmFactory) (sim.Config, error) {
	if err := sc.Validate(); err != nil {
		return sim.Config{}, err
	}
	tr := trace.Synthesize(sc.Name, sc.Nodes, 1, sc.Seed)
	g, err := tr.Graph()
	if err != nil {
		return sim.Config{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	overlay.AugmentMinDegree(g, sc.minDegree(), rand.New(rand.NewSource(sc.Seed^0xa06)))

	first := sc.First
	if first == 0 {
		first = g.MinDegreeNode()
	}
	if factory == nil {
		factory = sim.Fast
	}
	cfg := sim.Config{
		Graph:           g,
		Seed:            sc.Seed,
		NewAlgorithm:    factory,
		FirstSource:     first,
		SharedOutbound:  !sc.PerLink,
		Qs:              orDefault(sc.Qs, 50),
		HorizonTicks:    orDefault(sc.Horizon, 150),
		JoinSpreadTicks: sc.Spread,
		Script: &sim.Script{
			Events:   append([]sim.Event(nil), sc.Events...),
			Duration: sc.Duration,
		},
	}
	if sc.ChurnLeave > 0 || sc.ChurnJoin > 0 {
		cfg.Churn = &sim.ChurnConfig{LeaveFraction: sc.ChurnLeave, JoinFraction: sc.ChurnJoin}
	}
	if sc.Net {
		// The transport's delay model runs on the trace's ping column —
		// the one Clip2-DSS field the capacity substrate was dropping on
		// the floor. Nodes beyond the trace (churn joiners, crowd
		// members) fall back to NetPingMS.
		pings := make([]int, len(tr.Nodes))
		for i, n := range tr.Nodes {
			pings[i] = n.PingMS
		}
		cfg.Net = &netmodel.Config{
			PingMS:        pings,
			DefaultPingMS: sc.NetPingMS,
			JitterMS:      sc.NetJitterMS,
			Loss:          sc.NetLoss,
		}
	}
	return cfg, nil
}

// Run compiles and executes the scenario with the given scheduler on one
// worker. For worker control or ratio tracking, use Config and
// drive sim.New directly.
func (sc *Scenario) Run(factory sim.AlgorithmFactory) (*sim.Result, error) {
	cfg, err := sc.Config(factory)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
