// Package experiment regenerates every figure of the paper's evaluation
// (Section 5): the ratio tracks of Figures 5/9, the finishing/preparing
// bar charts of Figures 6/10, the switch-time and reduction-ratio curves
// of Figures 7/11, and the communication-overhead curves of Figures 8/12 —
// plus the ablation sweeps DESIGN.md calls out.
//
// A sweep is an embarrassingly parallel bag of simulation runs; the runner
// fans them out over the same engine worker pool the simulator's phases
// run on (internal/sim/engine), one trial per shard, while keeping every
// run individually deterministic (topology seed + run seed). Nested
// parallelism is available too: SimWorkers > 1 additionally parallelizes
// the phases inside each trial — useful when a few huge trials cannot
// saturate the machine by trial fan-out alone.
package experiment

import (
	"fmt"
	"math/rand"

	"gossipstream/internal/overlay"
	"gossipstream/internal/sim"
	"gossipstream/internal/sim/engine"
	"gossipstream/internal/trace"
)

// Workload is the common configuration of a figure regeneration. The zero
// value is not useful; start from Paper().
type Workload struct {
	// Sizes are the overlay scales to sweep (the paper evaluates 100, 500,
	// 1000, 2000, 4000, 8000).
	Sizes []int
	// SeedsPerSize runs each size on this many synthesized trace
	// topologies with distinct run seeds and averages the results (the
	// paper averages over its 30 crawl traces).
	SeedsPerSize int
	// BaseSeed derives every topology and run seed.
	BaseSeed int64

	// M is the per-node neighbor target after random-edge augmentation
	// (Section 5.1 uses M=5).
	M int

	// SwitchTick is the period at which each run's one planned switch
	// fires (the warm-up before it lets the system reach its stable
	// phase); JoinSpreadTicks and HorizonTicks are sim.Config's. Paper()
	// sets the calibrated shape: members assemble over ~25 s, the switch
	// fires at 40 s.
	SwitchTick      int
	JoinSpreadTicks int
	HorizonTicks    int

	// Churn enables the dynamic environment of Section 5.4 (5 % leave and
	// join per period).
	Churn bool

	// TrackRatios records the Figures 5/9 time series (costs CPU; only the
	// ratio-track experiments need it).
	TrackRatios bool

	// Workers bounds the trial fan-out pool (default: GOMAXPROCS).
	Workers int

	// SimWorkers sets the engine concurrency *inside* each simulation
	// (sim.Config.Workers): 0 runs every trial on one worker,
	// negative selects GOMAXPROCS per trial. Results are identical at any
	// setting; only wall-clock changes.
	SimWorkers int

	// FastFactory and NormalFactory build the two compared schedulers.
	// Overridden by the ablation experiments; nil means the paper's pair.
	FastFactory   sim.AlgorithmFactory
	NormalFactory sim.AlgorithmFactory

	// Substrate ablation switches (see sim.Config).
	PerLinkOutbound bool // use the per-link capacity model instead of shared
	DisablePrefetch bool // no leftover-budget random prefetch

	// qsOverride, when positive, replaces the paper's Qs=50 (used by the
	// startup-threshold ablation).
	qsOverride int
}

// Paper returns the calibrated workload reproducing Section 5.1: τ=1 s,
// p=10 segments/s, Q=10, Qs=50, B=600, M=5, I∈[10,33] with mean 15,
// shared outbound capacity, 40 warm-up periods with arrivals spread over
// the first 25.
func Paper() Workload {
	return Workload{
		Sizes:           []int{100, 500, 1000, 2000, 4000, 8000},
		SeedsPerSize:    5,
		BaseSeed:        20080917, // ICPP 2008 proceedings date
		M:               5,
		SwitchTick:      40,
		JoinSpreadTicks: 25,
		HorizonTicks:    300,
		FastFactory:     sim.Fast,
		NormalFactory:   sim.Normal,
	}
}

// Topology synthesizes the overlay for one (size, replica) cell: a
// Gnutella-like crawl trace augmented with random edges until every node
// holds at least M neighbors (Section 5.1's preparation).
func (w Workload) Topology(n int, replica int) (*overlay.Graph, error) {
	seed := w.BaseSeed + int64(n)*1_000_003 + int64(replica)*7919
	tr := trace.Synthesize(fmt.Sprintf("synth-%d-%d", n, replica), n, 1+replica%2, seed)
	g, err := tr.Graph()
	if err != nil {
		return nil, err
	}
	overlay.AugmentMinDegree(g, w.M, rand.New(rand.NewSource(seed^0xa06)))
	return g, nil
}

// simConfig assembles the sim.Config for one run on a fresh topology:
// the paper's evaluation shape as a one-event script.
func (w Workload) simConfig(g *overlay.Graph, runSeed int64, algo sim.AlgorithmFactory) sim.Config {
	cfg := sim.Config{
		Graph:           g,
		Seed:            runSeed,
		NewAlgorithm:    algo,
		JoinSpreadTicks: w.JoinSpreadTicks,
		HorizonTicks:    w.HorizonTicks,
		FirstSource:     -1,
		Script:          &sim.Script{Events: []sim.Event{sim.SwitchAt(w.SwitchTick, -1)}},
		SharedOutbound:  !w.PerLinkOutbound,
		DisablePrefetch: w.DisablePrefetch,
		Qs:              w.qsOverride,
		TrackRatios:     w.TrackRatios,
		Workers:         w.SimWorkers,
	}
	if w.Churn {
		cfg.Churn = &sim.ChurnConfig{LeaveFraction: 0.05, JoinFraction: 0.05}
	}
	return cfg
}

// trial is one simulation of a sweep.
type trial struct {
	label  string // names the trial in an error
	config func() (sim.Config, error)
}

// runTrials executes independent trials on the engine pool — one trial
// per shard, each writing its own result slot, so no lock guards the
// fan-out — and returns their results in trial order, or the first
// failed trial's error.
func runTrials(workers int, trials []trial) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(trials))
	errs := make([]error, len(trials))
	engine.NewPool(workers).Run(len(trials), func(_, i int) {
		cfg, err := trials[i].config()
		if err != nil {
			errs[i] = err
			return
		}
		s, err := sim.New(cfg)
		if err != nil {
			errs[i] = err
			return
		}
		results[i], errs[i] = s.Run()
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", trials[i].label, err)
		}
	}
	return results, nil
}

// trial builds one (size, replica) cell's run under the given scheduler.
func (w Workload) trial(n, replica int, algo sim.AlgorithmFactory) trial {
	return trial{
		label: fmt.Sprintf("size %d replica %d", n, replica),
		config: func() (sim.Config, error) {
			g, err := w.Topology(n, replica)
			if err != nil {
				return sim.Config{}, err
			}
			runSeed := w.BaseSeed ^ int64(n)<<20 ^ int64(replica)<<8
			return w.simConfig(g, runSeed, algo), nil
		},
	}
}

// Sweep runs both algorithms over every (size, replica) cell and returns
// the paired samples, ordered by size then replica.
func (w Workload) Sweep() ([]PairSample, error) {
	if w.FastFactory == nil {
		w.FastFactory = sim.Fast
	}
	if w.NormalFactory == nil {
		w.NormalFactory = sim.Normal
	}
	trials := make([]trial, 0, len(w.Sizes)*w.SeedsPerSize*2)
	for _, n := range w.Sizes {
		for r := 0; r < w.SeedsPerSize; r++ {
			trials = append(trials, w.trial(n, r, w.FastFactory), w.trial(n, r, w.NormalFactory))
		}
	}
	results, err := runTrials(w.Workers, trials)
	if err != nil {
		return nil, err
	}
	samples := make([]PairSample, 0, len(results)/2)
	for _, n := range w.Sizes {
		for r := 0; r < w.SeedsPerSize; r++ {
			i := 2 * len(samples)
			samples = append(samples, PairSample{N: n, Fast: results[i], Normal: results[i+1]})
		}
	}
	return samples, nil
}
