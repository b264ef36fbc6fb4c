package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"gossipstream/internal/experiment"
	"gossipstream/internal/runtime"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
	"gossipstream/internal/sim/engine"
	"gossipstream/internal/stats"
)

// scale sizes the workloads. A run does a fixed amount of work for a
// given -seconds — whole units, never a deadline — so two commits run
// the same inputs and a faster commit shows as a smaller run_s, not as
// more units. unitSeconds is what one unit costs on the reference host
// (2 CPUs); -seconds divided by it gives the unit count.
type scale struct {
	switchNodes int     // sim-switch: nodes per unit
	switchUnit  float64 // … and the unit's nominal seconds
	sweepNodes  int     // sim-library-sweep: nodes per trial
	sweepUnit   float64 // … and one scenario set's nominal seconds
	liveNodes   int     // both live workloads: peers per unit
	timeScale   float64 // … scenario seconds per wall second
	liveUnit    float64 // … and the unit's nominal seconds
	detNodes    int     // size of the worker-count determinism check
	driverDiv   int     // divisor of every layer-driver batch
}

var fullScale = scale{
	switchNodes: 2000, switchUnit: 2.6,
	sweepNodes: 120, sweepUnit: 2.1,
	liveNodes: 80, timeScale: 40, liveUnit: 1.8,
	detNodes:  2000,
	driverDiv: 1,
}

// toyScale is the smoke test's: every code path, in a few seconds.
var toyScale = scale{
	switchNodes: 200, switchUnit: 1,
	sweepNodes: 60, sweepUnit: 1,
	liveNodes: 30, timeScale: 200, liveUnit: 1,
	detNodes:  200,
	driverDiv: 50,
}

// runCtx is what one run of one workload works with.
type runCtx struct {
	seed    int64
	seconds float64
	sc      scale
	sp      *spans // nil on the untraced run
	root    int    // the run's root span
}

func (c *runCtx) units(unitSeconds float64) int {
	return max(1, int(c.seconds/unitSeconds))
}

// traced is what the traced run of a workload returns: its per-layer
// rows, and the scenario and plan shape its layer drivers should use.
type traced struct {
	rows      map[string]float64
	shape     *scenario.Scenario
	wireViews bool
}

type workload struct {
	name string
	// deterministic marks the simulator workloads: their results are a
	// pure function of the seed, so every run must share one digest.
	deterministic bool
	// procs is the GOMAXPROCS the workload runs under; 0 leaves it at the
	// number of CPUs. The simulator workloads run on one: on the 2-vCPU
	// reference host two busy threads make wall and CPU time of identical
	// inputs swing by a third from process to process (whether the
	// hypervisor co-schedules the vCPUs), against 7 % on one thread, which
	// would drown any change the benchmark is there to show.
	procs int
	// run is the untraced run: the end-to-end numbers come from it.
	run func(c *runCtx, t *tally) error
	// trace is the traced run. It pairs untraced and traced units on the
	// same inputs, so the tracing overhead is measured inside one
	// process; every unit it runs is tallied for the correctness gate.
	trace func(c *runCtx, t *tally) (*traced, error)
}

var workloads = []workload{
	{"sim-switch-2k", true, 1, runSwitch, traceSwitch},
	{"sim-library-sweep", true, 1, runSweep, traceSweep},
	{"live-chan-handoff", false, 0, runLive(chanUnit), traceLive(chanUnit, false)},
	{"cluster-udp-handoff", false, 0, runLive(clusterUnit), traceLive(clusterUnit, true)},
}

func lookupWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- sim-switch: one large sharded run per unit ----

// switchWorkers is the engine concurrency of sim-switch: two workers
// select the sharded engine (stable bucketing, shard-ordered gather)
// rather than the serial one. Under the workload's single CPU they are
// time-sliced, so run_s is the sharded engine's total work, not its
// speed-up.
const switchWorkers = 2

func switchScenario(c *runCtx, i int) *scenario.Scenario {
	sc := scenario.PaperSingleSwitch().Scaled(c.sc.switchNodes)
	sc.Seed = subSeed(c.seed, i)
	return sc
}

func runSwitch(c *runCtx, t *tally) error {
	for i := 0; i < c.units(c.sc.switchUnit); i++ {
		settle()
		u, err := simUnit(c.sp, c.root, switchScenario(c, i), sim.Fast, switchWorkers, nil)
		if err != nil {
			return err
		}
		t.add(u)
	}
	return nil
}

func traceSwitch(c *runCtx, t *tally) (*traced, error) {
	var bare, probed []unit
	var probes []*probe
	// A third of the untraced run's units, each run twice.
	for i := 0; i < max(1, c.units(c.sc.switchUnit)/3); i++ {
		sc := switchScenario(c, i)
		settle()
		u, err := simUnit(c.sp, c.root, sc, sim.Fast, switchWorkers, nil)
		if err != nil {
			return nil, err
		}
		p := &probe{}
		settle()
		v, err := simUnit(c.sp, c.root, sc, sim.Fast, switchWorkers, p)
		if err != nil {
			return nil, err
		}
		if a, b := unitDigest(u), unitDigest(v); a != b {
			return nil, fmt.Errorf("%s: traced run diverged from untraced (%s vs %s)", sc.Name, b, a)
		}
		t.add(u)
		t.add(v)
		bare, probed, probes = append(bare, u), append(probed, v), append(probes, p)
	}
	if err := checkWorkerInvariance(c, t); err != nil {
		return nil, err
	}
	rows := simRows(probes, sumUnits(probed), goruntime.GOMAXPROCS(0))
	rows["obs.trace_overhead_share"] = sumUnits(probed).wall.Seconds()/sumUnits(bare).wall.Seconds() - 1
	return &traced{rows: rows, shape: switchScenario(c, 0)}, nil
}

// checkWorkerInvariance is the determinism contract at the benchmark's
// surface: the same scenario on the serial engine and on the sharded
// engine must produce the same result digest.
func checkWorkerInvariance(c *runCtx, t *tally) error {
	id := c.sp.begin("determinism", c.root)
	defer c.sp.end(id)
	sc := scenario.PaperSingleSwitch().Scaled(c.sc.detNodes)
	sc.Seed = subSeed(c.seed, 1<<16)
	serial, err := simUnit(c.sp, id, sc, sim.Fast, 1, nil)
	if err != nil {
		return err
	}
	sharded, err := simUnit(c.sp, id, sc, sim.Fast, switchWorkers, nil)
	if err != nil {
		return err
	}
	t.add(serial)
	t.add(sharded)
	if a, b := unitDigest(serial), unitDigest(sharded); a != b {
		return fmt.Errorf("determinism contract broken at N=%d: Workers=1 gives %s, Workers=%d gives %s", sc.Nodes, a, switchWorkers, b)
	}
	return nil
}

func unitDigest(u unit) string {
	t := newTally()
	t.add(u)
	return t.resultDigest()
}

// sumUnits adds up the cost fields of several units.
func sumUnits(us []unit) unit {
	var sum unit
	for _, u := range us {
		sum.setup += u.setup
		sum.wall += u.wall
		sum.cpu += u.cpu
		sum.peerPeriods += u.peerPeriods
	}
	return sum
}

// simRows turns the probes of traced simulator units into the sim.*
// rows. cost is the summed cost of those units over the interval the
// workers were busy; workers is the concurrency that interval had.
func simRows(probes []*probe, cost unit, workers int) map[string]float64 {
	phase := make(map[string]float64)
	var all float64
	var ticks int64
	var allocs, bytes uint64
	for _, p := range probes {
		for _, pt := range p.phases {
			phase[pt.Name] += pt.Total.Seconds()
			all += pt.Total.Seconds()
		}
		ticks += p.counter("gossip_ticks_total")
		allocs += p.allocs
		bytes += p.bytes
	}
	rows := make(map[string]float64)
	named := 0.0
	for _, name := range []string{"plan", "serve", "deliver", "transit", "playback", "refill", "churn"} {
		rows["sim."+name+"_s"] = phase[name]
		named += phase[name]
	}
	rows["sim.other_s"] = all - named
	rows["sim.ticks"] = float64(ticks)
	rows["sim.ns_per_node_tick"] = float64(cost.wall.Nanoseconds()) / float64(cost.peerPeriods)
	rows["sim.cpu_s"] = cost.cpu.Seconds()
	rows["sim.parallel_efficiency"] = cost.cpu.Seconds() / (cost.wall.Seconds() * float64(workers))
	rows["sim.allocs_per_tick"] = float64(allocs) / float64(ticks)
	rows["sim.bytes_per_tick"] = float64(bytes) / float64(ticks)
	return rows
}

// ---- sim-library-sweep: many small serial-engine trials ----

// sweepScenarios is the scenario library at sweep size, one sub-seed
// each, without the four bundled scenarios on which some seeds fail
// operations — the benchmark must run workloads on which none fails.
// Runs with a failed switch window, surveyed over 60 (N=300) and 300
// (N=120) runs per scenario: source-crash 31/60, serial-handoff-chain
// 4/60 and churn-storm 2/60 (a segment of the ending stream becomes
// unobtainable and the whole cohort never finishes S1),
// transatlantic-split 4/300 (one node still unprepared when its 90-tick
// horizon closes). The four that stay: 0/300 each in that survey; at
// full length the sweep has since shown one stranded peer in 880 trials
// (paper-single-switch, Fast). See README.md.
func sweepScenarios(c *runCtx, set int) []*scenario.Scenario {
	var out []*scenario.Scenario
	for i, sc := range scenario.Library() {
		switch sc.Name {
		case "serial-handoff-chain", "churn-storm", "source-crash", "transatlantic-split":
			continue
		}
		sc = sc.Scaled(c.sc.sweepNodes)
		sc.Seed = subSeed(c.seed, set<<8|i)
		out = append(out, sc)
	}
	return out
}

var sweepAlgos = [2]sim.AlgorithmFactory{sim.Fast, sim.Normal}

// sweepSet runs one scenario set through experiment.ScenarioSweep. Its
// set-up sample is the cost of compiling every trial once more outside
// the sweep (scenario.Config + sim.New, serially) — the share of run_s
// that is per-trial set-up, which the sweep itself pays inside Run.
func sweepSet(c *runCtx, set int) (unit, []experiment.ScenarioOutcome, error) {
	settle()
	id := c.sp.begin("sweep.set", c.root)
	defer c.sp.end(id)

	setupSpan := c.sp.begin("compile trials", id)
	start := time.Now()
	scs := sweepScenarios(c, set)
	cfgs := make([][2]sim.Config, len(scs))
	for i, sc := range scs {
		for a, factory := range sweepAlgos {
			cfg, err := sc.Config(factory)
			if err != nil {
				return unit{}, nil, err
			}
			if _, err := sim.New(cfg); err != nil {
				return unit{}, nil, err
			}
			cfgs[i][a] = cfg
		}
	}
	u := unit{setup: time.Since(start)}
	c.sp.end(setupSpan)

	runSpan := c.sp.begin("experiment.ScenarioSweep.Run", id)
	cpu0, start := cpuTime(), time.Now()
	outs, err := experiment.ScenarioSweep{Scenarios: scs, Workers: goruntime.GOMAXPROCS(0)}.Run()
	u.wall, u.cpu = time.Since(start), cpuTime()-cpu0
	c.sp.end(runSpan)
	if err != nil {
		return unit{}, nil, err
	}
	for i, o := range outs {
		for a, res := range [2]*sim.Result{o.Fast, o.Normal} {
			if err := sim.CheckInvariants(cfgs[i][a], res); err != nil {
				return unit{}, nil, fmt.Errorf("%s/%s: invariants: %w", o.Scenario.Name, res.Algorithm, err)
			}
			u.peerPeriods += int64(o.Scenario.Nodes) * int64(simTicks(o.Scenario.Events, res))
			u.results = append(u.results, res)
		}
	}
	return u, outs, nil
}

func runSweep(c *runCtx, t *tally) error {
	for set := 0; set < c.units(c.sc.sweepUnit); set++ {
		u, _, err := sweepSet(c, set)
		if err != nil {
			return err
		}
		t.add(u)
	}
	return nil
}

func traceSweep(c *runCtx, t *tally) (*traced, error) {
	var bare, probed []unit
	var probes []*probe
	var fastPrep, normalPrep []float64
	for set := 0; set < max(1, c.units(c.sc.sweepUnit)/2); set++ {
		u, outs, err := sweepSet(c, set)
		if err != nil {
			return nil, err
		}
		t.add(u)
		bare = append(bare, u)
		for _, o := range outs {
			for wi, fw := range o.Fast.Windows {
				if fw.Kind == "switch" && wi < len(o.Normal.Windows) {
					fastPrep = append(fastPrep, fw.AvgPrepareS2())
					normalPrep = append(normalPrep, o.Normal.Windows[wi].AvgPrepareS2())
				}
			}
		}

		// The same trials again with the public observability on, through
		// a pool like the sweep's own so each phase is timed under the
		// concurrency it really runs in. Memory capture reads process-wide
		// counters, so it brackets the whole pass instead.
		settle()
		id := c.sp.begin("sweep.set traced", c.root)
		scs := sweepScenarios(c, set)
		trials := make([]unit, 2*len(scs))
		errs := make([]error, len(trials))
		setProbes := make([]*probe, len(trials))
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		cpu0, start := cpuTime(), time.Now()
		engine.NewPool(0).Run(len(trials), func(_, i int) {
			setProbes[i] = &probe{shared: true}
			trials[i], errs[i] = simUnit(c.sp, id, scs[i/2], sweepAlgos[i%2], 0, setProbes[i])
		})
		pass := unit{wall: time.Since(start), cpu: cpuTime() - cpu0}
		goruntime.ReadMemStats(&after)
		c.sp.end(id)
		for i, err := range errs {
			if err != nil {
				return nil, err
			}
			pass.peerPeriods += trials[i].peerPeriods
			pass.results = append(pass.results, trials[i].results...)
		}
		if a, b := unitDigest(u), unitDigest(pass); a != b {
			return nil, fmt.Errorf("sweep set %d: traced trials diverged from the sweep's (%s vs %s)", set, b, a)
		}
		setProbes[0].allocs, setProbes[0].bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.add(pass)
		probed = append(probed, pass)
		probes = append(probes, setProbes...)
	}
	rows := simRows(probes, sumUnits(probed), goruntime.GOMAXPROCS(0))
	rows["obs.trace_overhead_share"] = sumUnits(probed).wall.Seconds()/sumUnits(bare).wall.Seconds() - 1
	rows["experiment.switch_time_reduction"] = stats.ReductionRatio(stats.Mean(normalPrep), stats.Mean(fastPrep))
	return &traced{rows: rows, shape: sweepScenarios(c, 0)[0]}, nil
}

// ---- live-chan-handoff and cluster-udp-handoff: open-loop live runs ----

// liveUnitFunc is chanUnit or clusterUnit.
type liveUnitFunc func(sp *spans, parent int, sc *scenario.Scenario, timeScale float64, p *probe) (unit, runtime.LiveStats, error)

// liveHeadroom is the bandwidth shift every live scenario opens with: all
// listeners get twice the paper's inbound and outbound rates. At the
// paper's rates a peer whose inbound equals the playback rate (the
// distribution's mode) falls behind as soon as a supplier denies it, and
// a peer that has played S1 out while one of S2's first Qs segments is
// still missing then spends its whole budget on rarer segments until that
// one is about to leave its neighbors' buffers, 60 s later: one unit in
// five ran to 80–120 periods instead of 35, and one in ~150 missed that
// last chance and stranded the peer for good — a failed operation, which
// a benchmark workload must not have. With the headroom, 150 units closed
// in 26–30 periods, the slowest peer prepared after 22. See README.md.
const liveHeadroom = 2.0

// liveScenario is the paper's single planned handoff at live size, with
// the bandwidth headroom above. Both live workloads run the same
// scenarios, so their difference is the wire codec, the sockets and the
// control plane and nothing else.
func liveScenario(c *runCtx, i int) *scenario.Scenario {
	sc := scenario.PaperSingleSwitch().Scaled(c.sc.liveNodes)
	sc.Seed = subSeed(c.seed, i)
	sc.Events = append([]sim.Event{sim.BandwidthShiftAt(0, liveHeadroom)}, sc.Events...)
	return sc
}

func runLive(run liveUnitFunc) func(*runCtx, *tally) error {
	return func(c *runCtx, t *tally) error {
		for i := 0; i < c.units(c.sc.liveUnit); i++ {
			settle()
			u, _, err := run(c.sp, c.root, liveScenario(c, i), c.sc.timeScale, nil)
			if err != nil {
				return err
			}
			t.add(u)
		}
		return nil
	}
}

func traceLive(run liveUnitFunc, isCluster bool) func(*runCtx, *tally) (*traced, error) {
	return func(c *runCtx, t *tally) (*traced, error) {
		var bare, probed, reference []unit
		var probes []*probe
		var sts []runtime.LiveStats
		quality := newTally()
		// Each scenario runs two or three times (untraced, traced, and for
		// the cluster once more on the channel transport as the reference
		// its overhead is measured against), so fewer scenarios fit.
		passes := 2
		if isCluster {
			passes = 3
		}
		for i := 0; i < max(1, c.units(c.sc.liveUnit)/passes); i++ {
			sc := liveScenario(c, i)
			settle()
			u, _, err := run(c.sp, c.root, sc, c.sc.timeScale, nil)
			if err != nil {
				return nil, err
			}
			p := &probe{}
			settle()
			v, st, err := run(c.sp, c.root, sc, c.sc.timeScale, p)
			if err != nil {
				return nil, err
			}
			t.add(u)
			t.add(v)
			quality.add(v)
			bare, probed, probes, sts = append(bare, u), append(probed, v), append(probes, p), append(sts, st)
			if isCluster {
				settle()
				r, _, err := chanUnit(c.sp, c.root, sc, c.sc.timeScale, nil)
				if err != nil {
					return nil, err
				}
				t.add(r)
				reference = append(reference, r)
			}
		}
		rows, err := liveRows(probes, sts, sumUnits(probed).peerPeriods, quality, c.sc.timeScale)
		if err != nil {
			return nil, err
		}
		perPeerPeriod := func(us []unit) float64 {
			sum := sumUnits(us)
			return float64(sum.cpu.Nanoseconds()) / 1e3 / float64(sum.peerPeriods)
		}
		rows["obs.trace_overhead_share"] = perPeerPeriod(probed)/perPeerPeriod(bare) - 1
		if isCluster {
			rows["cluster.cpu_overhead_us_per_peer_period"] = perPeerPeriod(bare) - perPeerPeriod(reference)
			for name, series := range map[string]string{
				"cluster.workers_suspected": "gossip_workers_suspected_total",
				"cluster.failovers":         "gossip_worker_failovers_total",
			} {
				for _, p := range probes {
					rows[name] += float64(p.counter(series))
				}
				if rows[name] != 0 {
					return nil, fmt.Errorf("%s = %v on a run without faults", name, rows[name])
				}
			}
		}
		return &traced{rows: rows, shape: liveScenario(c, 0), wireViews: true}, nil
	}
}

// liveRows turns the probes and execution stats of traced live units
// into the runtime.* rows.
func liveRows(probes []*probe, sts []runtime.LiveStats, peerPeriods int64, quality *tally, timeScale float64) (map[string]float64, error) {
	var busy []float64
	var sent, lost, inboxDropped, kernelDrops, holes int64
	for _, p := range probes {
		ns, err := p.tickNS()
		if err != nil {
			return nil, err
		}
		busy = append(busy, ns...)
		sent += p.counter("gossip_frames_sent_total")
		lost += p.counter("gossip_frames_lost_total")
		inboxDropped += p.counter("gossip_transport_inbox_dropped_total")
		kernelDrops += p.counter("gossip_kernel_udp_drops_total")
		holes += p.counter("gossip_playback_holes_total")
	}
	var periods, overruns int
	var wall time.Duration
	for _, st := range sts {
		periods += st.Periods
		overruns += st.Overruns
		wall += st.WallDuration
	}
	if len(busy) == 0 || periods == 0 || sent == 0 {
		return nil, fmt.Errorf("traced live run recorded no periods or no data frames")
	}
	q, err := quality.quality()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"runtime.period_busy_ms_p50":          stats.Percentile(busy, 50) / 1e6,
		"runtime.period_busy_ms_p99":          stats.Percentile(busy, 99) / 1e6,
		"runtime.overrun_share":               float64(overruns) / float64(periods),
		"runtime.wall_stretch":                wall.Seconds()/(float64(periods)/timeScale) - 1,
		"runtime.data_frames_per_peer_period": float64(sent) / float64(peerPeriods),
		"runtime.data_lost_share":             float64(lost) / float64(sent),
		"runtime.inbox_dropped":               float64(inboxDropped),
		"runtime.kernel_udp_drops":            float64(kernelDrops),
		"runtime.playback_holes":              float64(holes),
		"runtime.finish_s1_s":                 q["finish_s1_s"],
		"runtime.continuity":                  q["continuity"],
		"runtime.overhead_ratio":              q["overhead_ratio"],
	}, nil
}
