package sim

import (
	"fmt"
	"math/rand"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/core"
	"gossipstream/internal/netmodel"
	"gossipstream/internal/obs"
	"gossipstream/internal/overlay"
)

// AlgorithmFactory builds a fresh scheduler instance for a run. Factories
// rather than instances are configured because schedulers carry reusable
// scratch state and runs may execute concurrently.
type AlgorithmFactory func() core.Algorithm

// Fast returns the paper's fast switch algorithm.
func Fast() core.Algorithm { return &core.FastSwitch{} }

// Normal returns the baseline normal switch algorithm.
func Normal() core.Algorithm { return &core.NormalSwitch{} }

// ChurnConfig enables the dynamic environment of Section 5.4: per
// scheduling period, LeaveFraction of the alive nodes depart and the same
// number of fresh nodes join, wiring themselves through the membership
// protocol and adopting their neighbors' playback position.
type ChurnConfig struct {
	// LeaveFraction of alive non-source nodes leaving per tick (paper: 0.05).
	LeaveFraction float64
	// JoinFraction of alive nodes joining per tick (paper: 0.05).
	JoinFraction float64
}

// The protocol constants of Section 5.1, the one parameter set every run
// of the paper uses; the playback rate p is bandwidth.PlayRate and the
// source's outbound bandwidth.SourceProfile.
const (
	Tau         = 1.0                           // scheduling period τ, seconds
	Q           = 10                            // S1 consecutive-segment start threshold
	BufferCap   = 600                           // buffer capacity B, segments
	PerTick     = int(bandwidth.PlayRate * Tau) // p·τ: whole segments played (and generated) per period
	ServeRounds = 3                             // plan/serve rounds per period (see phaseSchedule)
)

// Config fully describes one simulation run. Every field means its
// value: scenario.Scenario.Config resolves a scenario's defaults to the
// paper's Section 5.1 settings and checks them, so a Config carries no
// unset field and no sentinel. The protocol constants above are not
// configurable.
type Config struct {
	// Graph is the overlay topology; it is mutated by churn, so callers
	// that reuse topologies should pass a Clone. Required.
	Graph *overlay.Graph
	// Seed drives every random decision of the run.
	Seed int64

	// Qs is the number of segments of the new source needed to start
	// (the paper's 50).
	Qs int

	// DisablePrefetch turns off the substrate's leftover-budget random
	// prefetch. The paper's switch algorithms govern the *prioritized*
	// share of inbound; like every data-driven mesh system (CoolStreaming
	// et al.), the substrate spends any leftover inbound on randomly
	// chosen missing segments so neighborhood holdings stay diverse and
	// every link stays useful. Disabling it degenerates the mesh into an
	// in-order wave bounded by the per-link rate — the substrate-ablation
	// benchmark quantifies exactly that collapse.
	DisablePrefetch bool

	// SharedOutbound switches the bandwidth substrate from the paper's
	// per-link model to a contention model.
	//
	// The paper's Algorithm 1 treats R(j) as the rate supplier j offers
	// *to the requesting node* — queueing time τ(j) accumulates only the
	// requester's own transfers, with no term for competing neighbors — so
	// the zero value (false) is the paper's literal reading: each
	// supplier→requester link is capped at R(j)·τ segments per period and
	// a supplier serves all links at once. With SharedOutbound=true,
	// R(j)·τ is instead a per-period aggregate budget shared by all of
	// j's links (swarm-style contention). Shared is what this repository
	// calibrates and runs: scenario files, the experiment workloads and
	// every CLI set it, and per-link is their opt-in substrate ablation.
	SharedOutbound bool

	// NewAlgorithm builds the per-run scheduler. Required.
	NewAlgorithm AlgorithmFactory

	// JoinSpreadTicks staggers node arrivals uniformly over the first
	// ticks of the run (0: everyone starts at once). Members of a
	// conference or lecture session assemble over time but play the
	// stream from its beginning, so a node arriving at time t carries a
	// catch-up backlog of p·t segments — the undelivered backlog Q1 that
	// the source switch problem is about. Nodes with little inbound
	// headroom (I close to p) still carry part of it when the switch
	// happens.
	JoinSpreadTicks int
	// HorizonTicks bound the measurement window of a switch event that
	// sets no Horizon of its own (the paper's 150).
	HorizonTicks int

	// FirstSource is the initial streaming source S1. A scenario that
	// pins none gets the graph's MinDegreeNode (a source "holding M
	// connected neighbors", like every other node).
	FirstSource overlay.NodeID

	// Script is the event timeline the run executes: tick-scheduled
	// source switches (planned or crash), churn bursts, flash crowds,
	// bandwidth shifts and extra measurement windows, each switch
	// reporting its own metrics block in Result.Windows. Required. The
	// paper's evaluation shape — warm up, one planned switch, measure to
	// the horizon — is the one-event script {SwitchAt(40, -1)}. See
	// Script and the internal/scenario package.
	Script *Script

	// Churn enables the dynamic environment; nil means static.
	Churn *ChurnConfig

	// Net enables the message-level transport model: granted segments
	// become in-flight messages with a continuous sub-tick arrival
	// timestamp derived from trace ping times (plus seeded jitter), a
	// per-message loss probability, and partition semantics, drained in
	// timestamp order by the pipeline's transit phase. nil keeps the
	// classic substrate — every grant delivered instantly and losslessly
	// at the end of its tick. See internal/netmodel.
	Net *netmodel.Config

	// TrackRatios records the per-tick undelivered/delivered ratio series
	// (Figures 5 and 9). Costs one window scan per node per tick.
	TrackRatios bool

	// Obs attaches the run's observability sinks (metrics registry, JSONL
	// trace, Chrome span exporter — see internal/obs). Observational
	// only: sinks read run state and never feed anything back, so an
	// instrumented run is bit-identical to a bare one (pinned by
	// TestTracedRunBitIdentical). nil disables everything at the cost of
	// one nil check per update.
	Obs *obs.Obs

	// Workers sets the engine concurrency for the sharded phases (plan,
	// serve, refill, playback). 0 or 1 runs every shard inline on the
	// caller's goroutine (one worker — the same code, no goroutines);
	// negative selects GOMAXPROCS. The worker count never affects
	// results: per-shard RNG streams and shard-ordered merges make a run
	// a pure function of the seed at any concurrency (see
	// internal/sim/engine).
	Workers int
}

// Arrivals draws the run's initial population, one entry per node of
// Graph: the bandwidth profiles from the paper's distribution, and the
// start ticks, uniform over [0, JoinSpreadTicks] (every node at 0 without
// a spread; the initial source at 0 always, since the session exists from
// the moment its source speaks). Both drivers assemble their population
// from it, so the simulator and the live runtime see one draw.
func (c Config) Arrivals() (profiles []bandwidth.Profile, startTicks []int) {
	n := c.Graph.N()
	profiles = bandwidth.Assign(n, rand.New(rand.NewSource(c.Seed^0x0ba5_e5)))
	startTicks = make([]int, n)
	if c.JoinSpreadTicks > 0 {
		stagger := rand.New(rand.NewSource(c.Seed ^ 0x57a6))
		for i := range startTicks {
			startTicks[i] = stagger.Intn(c.JoinSpreadTicks + 1)
		}
	}
	startTicks[c.FirstSource] = 0
	return profiles, startTicks
}

// PeerParams are the planning and serving steps' parameters of the run,
// the same for every peer of either driver.
func (c Config) PeerParams() PeerParams {
	return PeerParams{Qs: c.Qs, Shared: c.SharedOutbound, DisablePrefetch: c.DisablePrefetch}
}

// Validate reports the preconditions New cannot run without. Whether the
// parameters are legal is scenario.Scenario.Validate's question, asked
// once where files, flags and the cluster welcome enter.
func (c Config) Validate() error {
	if c.Graph == nil {
		return fmt.Errorf("sim: Config.Graph is required")
	}
	if c.Graph.N() < 2 {
		return fmt.Errorf("sim: need at least 2 nodes, have %d", c.Graph.N())
	}
	if c.NewAlgorithm == nil {
		return fmt.Errorf("sim: Config.NewAlgorithm is required")
	}
	if c.Script == nil {
		return fmt.Errorf("sim: Config.Script is required")
	}
	return nil
}
