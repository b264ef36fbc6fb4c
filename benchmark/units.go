package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"gossipstream/internal/cluster"
	"gossipstream/internal/obs"
	"gossipstream/internal/runtime"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
	"gossipstream/internal/sim/engine"
	"gossipstream/internal/stats"
)

// A unit is one execution of one scenario on one backend. The three
// unit functions below are the only places the benchmark calls into the
// backends; each wraps its set-up and its run in a span, and each can
// turn the backend's public observability on (the traced pass).

// probe is the public observability of one traced unit: an in-memory
// registry and JSONL trace per process-equivalent (one per cluster
// shard), plus what only a simulator run exposes.
type probe struct {
	regs   []*obs.Registry
	traces []*bytes.Buffer

	// Simulator units only: the phase pipeline's timings and the heap
	// allocation across Run. shared marks a unit that runs beside others
	// in this process; allocation counters are process-wide, so such a
	// unit captures none and its caller brackets the whole pass instead.
	shared        bool
	phases        []engine.PhaseTiming
	allocs, bytes uint64
}

func (p *probe) newObs() *obs.Obs {
	reg, buf := obs.NewRegistry(), &bytes.Buffer{}
	p.regs = append(p.regs, reg)
	p.traces = append(p.traces, buf)
	return &obs.Obs{Reg: reg, Trace: obs.NewTrace(buf)}
}

// counter sums one registry series over every process of the unit.
func (p *probe) counter(name string) int64 {
	var sum int64
	for _, reg := range p.regs {
		sum += reg.Snapshot()[name]
	}
	return sum
}

// tickNS returns the wall-clock cost of every scheduling period the
// unit's trace streams recorded (the `tick` events).
func (p *probe) tickNS() ([]float64, error) {
	var out []float64
	for _, buf := range p.traces {
		sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
		for sc.Scan() {
			var ev obs.TraceEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return nil, fmt.Errorf("trace line: %w", err)
			}
			if ev.T == obs.EvTick {
				out = append(out, float64(ev.NS))
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// simUnit compiles a scenario and runs it on the simulator. With a probe
// the run carries a registry, a trace and (unless shared) per-phase
// memory capture.
func simUnit(sp *spans, parent int, sc *scenario.Scenario, factory sim.AlgorithmFactory, workers int, p *probe) (unit, error) {
	id := sp.begin("sim.unit", parent)
	defer sp.end(id)

	setupSpan := sp.begin("scenario.Config+sim.New", id)
	start := time.Now()
	cfg, err := sc.Config(factory)
	if err != nil {
		return unit{}, err
	}
	cfg.Workers = workers
	var o *obs.Obs
	if p != nil {
		o = p.newObs()
		cfg.Obs = o
	}
	s, err := sim.New(cfg)
	if err != nil {
		return unit{}, err
	}
	u := unit{setup: time.Since(start)}
	sp.end(setupSpan)

	var before, after goruntime.MemStats
	capture := p != nil && !p.shared
	if capture {
		s.CapturePhaseMem(true)
		goruntime.ReadMemStats(&before)
	}
	runSpan := sp.begin("sim.Run", id)
	cpu0, start := cpuTime(), time.Now()
	res, err := s.Run()
	u.wall, u.cpu = time.Since(start), cpuTime()-cpu0
	sp.end(runSpan)
	if err != nil {
		return unit{}, fmt.Errorf("%s: %w", sc.Name, err)
	}
	if capture {
		goruntime.ReadMemStats(&after)
		p.allocs, p.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	if p != nil {
		p.phases = s.PhaseTimings()
		if err := o.Close(); err != nil {
			return unit{}, err
		}
	}
	if err := sim.CheckInvariants(cfg, res); err != nil {
		return unit{}, fmt.Errorf("%s: invariants: %w", sc.Name, err)
	}
	ticks := simTicks(sc.Events, res)
	if p != nil {
		if got := p.regs[len(p.regs)-1].Snapshot()["gossip_ticks_total"]; got != int64(ticks) {
			return unit{}, fmt.Errorf("%s: engine ran %d ticks, result implies %d", sc.Name, got, ticks)
		}
	}
	u.peerPeriods = int64(sc.Nodes) * int64(ticks)
	u.results = []*sim.Result{res}
	return u, nil
}

// checkLive audits a live result against the scenario's compiled config.
func checkLive(sc *scenario.Scenario, res *sim.Result) error {
	cfg, err := sc.Config(sim.Fast)
	if err != nil {
		return err
	}
	if err := sim.CheckLiveInvariants(cfg, res); err != nil {
		return fmt.Errorf("%s: live invariants: %w", sc.Name, err)
	}
	return nil
}

// liveSetupReps is how often chanUnit compiles its scenario to time it.
const liveSetupReps = 9

// chanUnit runs a scenario on the live runtime over the in-process
// channel transport: open loop, one period per 1/timeScale seconds.
func chanUnit(sp *spans, parent int, sc *scenario.Scenario, timeScale float64, p *probe) (unit, runtime.LiveStats, error) {
	id := sp.begin("live.unit", parent)
	defer sp.end(id)

	opt := runtime.Options{TimeScale: timeScale}
	if p != nil {
		opt.Obs = p.newObs()
	}
	// FromScenario takes a fraction of a millisecond and starts nothing,
	// so it is timed several times over (the first call after the pause
	// between units runs on cold caches and reads up to twice the rest);
	// the last compilation is the one that runs.
	setupSpan := sp.begin("runtime.FromScenario", id)
	var r *runtime.Runner
	setups := make([]float64, liveSetupReps)
	for i := range setups {
		start := time.Now()
		var err error
		if r, err = runtime.FromScenario(sc, sim.Fast, opt); err != nil {
			return unit{}, runtime.LiveStats{}, err
		}
		setups[i] = float64(time.Since(start))
	}
	u := unit{setup: time.Duration(stats.Median(setups))}
	sp.end(setupSpan)

	runSpan := sp.begin("runtime.Run", id)
	cpu0 := cpuTime()
	res, err := r.Run()
	u.cpu = cpuTime() - cpu0
	sp.end(runSpan)
	if err != nil {
		return unit{}, runtime.LiveStats{}, fmt.Errorf("%s: %w", sc.Name, err)
	}
	if err := opt.Obs.Close(); err != nil {
		return unit{}, runtime.LiveStats{}, err
	}
	if err := checkLive(sc, res); err != nil {
		return unit{}, runtime.LiveStats{}, err
	}
	st := r.Stats()
	u.wall = st.WallDuration
	u.peerPeriods = int64(sc.Nodes) * int64(st.Periods)
	u.results = []*sim.Result{res}
	return u, st, nil
}

// clusterWorkers is the number of joining shards; with the starter the
// run spans three, the smallest cluster in which a frame can cross
// between two non-coordinator shards.
const clusterWorkers = 2

// clusterUnit runs a scenario as a starter plus two joiners in this
// process: three shards, one UDP loopback socket per peer, and the
// token-sealed control link between the shards. Set-up is everything
// Serve does before the first period (listen, join handshake, spawn).
func clusterUnit(sp *spans, parent int, sc *scenario.Scenario, timeScale float64, p *probe) (unit, runtime.LiveStats, error) {
	id := sp.begin("cluster.unit", parent)
	defer sp.end(id)

	const token = "benchmark"
	cfg := cluster.Config{
		Scenario: sc, Algo: "fast", Workers: clusterWorkers, TimeScale: timeScale,
		Token: token, Listen: "127.0.0.1:0",
	}
	joins := make([]cluster.JoinConfig, clusterWorkers)
	for i := range joins {
		joins[i] = cluster.JoinConfig{Token: token, Seed: int64(i + 1)}
	}
	if p != nil {
		cfg.Obs = p.newObs()
		for i := range joins {
			joins[i].Obs = p.newObs()
		}
	}
	// Serve reports its bound address once, and every joiner takes one
	// copy; a Serve that failed before listening closes the channel so the
	// joiners give up instead of waiting forever.
	addr := make(chan string, clusterWorkers)
	cfg.Ready = func(a string) {
		for range joins {
			addr <- a
		}
	}

	var wg sync.WaitGroup
	joinErrs := make([]error, clusterWorkers)
	for i := range joins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, ok := <-addr
			if !ok {
				return
			}
			joins[i].Starter = a
			_, joinErrs[i] = cluster.Join(joins[i])
		}(i)
	}
	serveSpan := sp.begin("cluster.Serve", id)
	cpu0, start := cpuTime(), time.Now()
	res, st, err := cluster.Serve(cfg)
	serveWall := time.Since(start)
	sp.end(serveSpan)
	if err != nil {
		close(addr)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	if err = errors.Join(append(joinErrs, err)...); err != nil {
		return unit{}, runtime.LiveStats{}, fmt.Errorf("%s: cluster: %w", sc.Name, err)
	}
	closeErrs := []error{cfg.Obs.Close()}
	for i := range joins {
		closeErrs = append(closeErrs, joins[i].Obs.Close())
	}
	if err := errors.Join(closeErrs...); err != nil {
		return unit{}, runtime.LiveStats{}, err
	}
	if err := checkLive(sc, res); err != nil {
		return unit{}, runtime.LiveStats{}, err
	}
	u := unit{
		setup:       serveWall - st.WallDuration,
		wall:        st.WallDuration,
		cpu:         cpu,
		peerPeriods: int64(sc.Nodes) * int64(st.Periods),
		results:     []*sim.Result{res},
	}
	return u, st, nil
}
