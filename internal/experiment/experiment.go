// Package experiment regenerates every figure of the paper's evaluation
// (Section 5): the ratio tracks of Figures 5/9, the finishing/preparing
// bar charts of Figures 6/10, the switch-time and reduction-ratio curves
// of Figures 7/11, and the communication-overhead curves of Figures 8/12 —
// plus ablation sweeps over the scheduler's design choices (priority
// scoring, the rate split) and the substrate (neighbor count, startup
// threshold, capacity model, prefetch).
//
// Every run is a scenario.Scenario compiled by its Config: a figure
// sweep scales one base scenario over sizes and replicas, an ablation
// runs one size's cells under each variant, and a scenario sweep runs
// whole scenarios. A sweep is an embarrassingly parallel bag of such
// runs; the runner fans them out over the same engine worker pool the
// simulator's phases run on (internal/sim/engine), one trial per shard,
// while keeping every run individually deterministic (its scenario's
// seed drives topology and run alike). Nested parallelism is available
// too: SimWorkers > 1 additionally parallelizes the phases inside each
// trial — useful when a few huge trials cannot saturate the machine by
// trial fan-out alone.
package experiment

import (
	"fmt"

	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
	"gossipstream/internal/sim/engine"
)

// Workload is the common configuration of a figure regeneration: one
// base scenario, run at every size for several replicas. The zero value
// is not useful; start from Paper().
type Workload struct {
	// Base is the run every (size, replica) cell scales: its topology
	// parameters, environment and timeline. Its Seed derives every
	// cell's seed. Edit a copy (With), not the pointee: workloads copied
	// from one another share it.
	Base *scenario.Scenario

	// Sizes are the overlay scales to sweep (the paper evaluates 100, 500,
	// 1000, 2000, 4000, 8000).
	Sizes []int
	// SeedsPerSize runs each size on this many synthesized trace
	// topologies with distinct run seeds and averages the results (the
	// paper averages over its 30 crawl traces).
	SeedsPerSize int

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

	// DisablePrefetch turns off the leftover-budget random prefetch (the
	// substrate ablation; see sim.Config).
	DisablePrefetch bool
}

// Paper returns the calibrated workload reproducing Section 5.1: the
// paper's single-switch scenario (τ=1 s, p=10 segments/s, Q=10, Qs=50,
// B=600, M=5, I∈[10,33] with mean 15, shared outbound capacity, 40
// warm-up periods with arrivals spread over the first 25) at every size
// of the paper's sweep.
func Paper() Workload {
	base := scenario.PaperSingleSwitch()
	base.Seed = 20080917 // ICPP 2008 proceedings date
	return Workload{
		Base:          base,
		Sizes:         []int{100, 500, 1000, 2000, 4000, 8000},
		SeedsPerSize:  5,
		FastFactory:   sim.Fast,
		NormalFactory: sim.Normal,
	}
}

// With returns a copy of the workload whose base scenario is a copy
// edited by edit; w (which must have a Base) is left unchanged.
func (w Workload) With(edit func(*scenario.Scenario)) Workload {
	base := *w.Base
	edit(&base)
	w.Base = &base
	return w
}

// Dynamic returns the workload in Section 5.4's dynamic environment: 5 %
// of the nodes leave and 5 % join per period.
func (w Workload) Dynamic() Workload {
	return w.With(func(sc *scenario.Scenario) { sc.ChurnLeave, sc.ChurnJoin = 0.05, 0.05 })
}

// cell is the scenario of one (size, replica) cell: the base scaled to n
// nodes with its own seed, so each replica runs on its own synthesized
// topology. Scaled leaves a non-positive n unscaled; setting Nodes anyway
// lets Config reject it.
func (w Workload) cell(n, replica int) *scenario.Scenario {
	sc := w.Base.Scaled(n)
	sc.Nodes = n
	sc.Seed = w.Base.Seed + int64(n)*1_000_003 + int64(replica)*7919
	return sc
}

// check rejects a workload that has nothing to run.
func (w Workload) check() error {
	if w.Base == nil {
		return fmt.Errorf("experiment: workload has no base scenario")
	}
	if w.SeedsPerSize < 1 {
		return fmt.Errorf("experiment: need at least one replica per size, have %d", w.SeedsPerSize)
	}
	return nil
}

// runSettings are the run-side knobs a scenario does not carry.
type runSettings struct {
	workers     int // trial fan-out pool (0 = GOMAXPROCS)
	simWorkers  int // sim.Config.Workers of every trial
	trackRatios bool
	noPrefetch  bool
}

// settings are the workload's run-side knobs.
func (w Workload) settings() runSettings {
	return runSettings{w.Workers, w.SimWorkers, w.TrackRatios, w.DisablePrefetch}
}

// trial is one simulation of a sweep: a scenario under one scheduler.
type trial struct {
	label string // names the trial in an error
	sc    *scenario.Scenario
	algo  sim.AlgorithmFactory
}

// runTrials compiles and executes independent trials on the engine pool
// — one trial per shard, each writing its own result slot, so no lock
// guards the fan-out — and returns their results in trial order, or the
// first failed trial's error.
func runTrials(rs runSettings, trials []trial) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(trials))
	errs := make([]error, len(trials))
	engine.NewPool(rs.workers).Run(len(trials), func(_, i int) {
		cfg, err := trials[i].sc.Config(trials[i].algo)
		if err != nil {
			errs[i] = err
			return
		}
		cfg.Workers = rs.simWorkers
		cfg.TrackRatios = rs.trackRatios
		cfg.DisablePrefetch = rs.noPrefetch
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

// paperPair fills in the paper's schedulers for nil factories.
func paperPair(fast, normal sim.AlgorithmFactory) (sim.AlgorithmFactory, sim.AlgorithmFactory) {
	if fast == nil {
		fast = sim.Fast
	}
	if normal == nil {
		normal = sim.Normal
	}
	return fast, normal
}

// Sweep runs both algorithms over every (size, replica) cell and returns
// the paired samples, ordered by size then replica.
func (w Workload) Sweep() ([]PairSample, error) {
	if len(w.Sizes) == 0 {
		return nil, fmt.Errorf("experiment: a sweep needs at least one size")
	}
	if err := w.check(); err != nil {
		return nil, err
	}
	fast, normal := paperPair(w.FastFactory, w.NormalFactory)
	trials := make([]trial, 0, len(w.Sizes)*w.SeedsPerSize*2)
	for _, n := range w.Sizes {
		for r := 0; r < w.SeedsPerSize; r++ {
			sc, label := w.cell(n, r), fmt.Sprintf("size %d replica %d", n, r)
			trials = append(trials, trial{label, sc, fast}, trial{label, sc, normal})
		}
	}
	results, err := runTrials(w.settings(), trials)
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
