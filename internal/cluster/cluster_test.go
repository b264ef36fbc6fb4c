package cluster

import (
	stdruntime "runtime"
	"sync"
	"testing"

	"gossipstream/internal/obs"
	"gossipstream/internal/runtime"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

// runClusterOpts executes one scenario as a starter plus `workers`
// joiners, all in this process over real UDP loopback sockets. The
// mutators (either may be nil) adjust the starter Config and each
// joiner's JoinConfig before launch; the joiners' errors come back
// unjudged so chaos tests can expect a scripted death.
func runClusterOpts(t *testing.T, sc *scenario.Scenario, workers int, timeScale float64,
	mutate func(*Config), mutateJoin func(int, *JoinConfig)) (*sim.Result, []error) {
	t.Helper()
	res, errs, err := launchCluster(t, sc, workers, timeScale, mutate, mutateJoin)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	return res, errs
}

// launchCluster is runClusterOpts with the starter's error returned
// unjudged too.
func launchCluster(t *testing.T, sc *scenario.Scenario, workers int, timeScale float64,
	mutate func(*Config), mutateJoin func(int, *JoinConfig)) (*sim.Result, []error, error) {
	t.Helper()
	addrCh := make(chan string, 1)
	type out struct {
		res *sim.Result
		err error
	}
	servCh := make(chan out, 1)
	cfg := Config{
		Scenario:  sc,
		Algo:      "fast",
		Workers:   workers,
		TimeScale: timeScale,
		Token:     "cluster-test",
		Listen:    "127.0.0.1:0",
		Ready:     func(a string) { addrCh <- a },
		Logf:      t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	go func() {
		res, _, err := Serve(cfg)
		servCh <- out{res, err}
	}()
	addr := <-addrCh
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jc := JoinConfig{
				Starter: addr,
				Token:   "cluster-test",
				Seed:    int64(i + 1),
				Logf:    t.Logf,
			}
			if mutateJoin != nil {
				mutateJoin(i, &jc)
			}
			_, errs[i] = Join(jc)
		}(i)
	}
	got := <-servCh
	wg.Wait()
	return got.res, errs, got.err
}

// runCluster is runClusterOpts with defaults and every join required to
// succeed. Returns the merged result from the starter.
func runCluster(t *testing.T, sc *scenario.Scenario, workers int, timeScale float64) *sim.Result {
	t.Helper()
	res, errs := runClusterOpts(t, sc, workers, timeScale, nil, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	return res
}

// TestClusterParityPaperSingleSwitch pins a three-process run of the
// paper's evaluation scenario against a single-process live run over
// the same UDP loopback transport — the PR 5 parity tolerances, one
// layer up: the same scenario, now with the peer population sharded
// across a starter and two joiners whose only shared state is the
// gossiped directory and the broadcast directives.
func TestClusterParityPaperSingleSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard parity run takes several seconds")
	}
	if raceEnabled && stdruntime.NumCPU() < 2 {
		t.Skip("race build on a single CPU saturates the pacer (see race_on_test.go)")
	}
	sc := scenario.PaperSingleSwitch().Scaled(60)

	tr := runtime.NewUDPTransport(sc.Seed ^ 0x11fe)
	defer tr.Close()
	r, err := runtime.FromScenario(sc, sim.Fast, runtime.Options{Transport: tr, TimeScale: 50})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	res := runCluster(t, sc, 2, 50)

	if len(res.Windows) != len(ref.Windows) {
		t.Fatalf("cluster has %d windows, single-process has %d", len(res.Windows), len(ref.Windows))
	}
	cw, rw := res.Windows[0], ref.Windows[0]
	t.Logf("single : %s", rw)
	t.Logf("cluster: %s", cw)

	if cw.Kind != "switch" || rw.Kind != "switch" {
		t.Fatalf("window kinds: cluster %q, single %q", cw.Kind, rw.Kind)
	}
	// The scripted switch names an old source owned by shard 1, so the
	// coordinator must complete a stop-source round trip before it can
	// resolve the switch — the event lands a tick or two after the
	// scripted instant, never before it.
	if d := cw.Tick - rw.Tick; d < 0 || d > 5 {
		t.Errorf("switch tick: cluster %d, single %d (want scripted tick plus a short stop round trip)", cw.Tick, rw.Tick)
	}
	// The cohort is frozen per shard at each shard's own window-open
	// instant, so a report lagging one period across the process
	// boundary can shift it by a node or two.
	if d := cw.Cohort - rw.Cohort; d > 2 || d < -2 {
		t.Errorf("cohort: cluster %d, single %d", cw.Cohort, rw.Cohort)
	}

	maxStragglers := cw.Cohort / 50
	if cw.UnfinishedS1 > maxStragglers || cw.UnpreparedS2 > maxStragglers {
		t.Errorf("incomplete window: unfinished=%d unprepared=%d (allowed %d of cohort %d)",
			cw.UnfinishedS1, cw.UnpreparedS2, maxStragglers, cw.Cohort)
	}
	if got := len(cw.PrepareS2Times); got < cw.Cohort-maxStragglers {
		t.Errorf("prepare-S2 samples: %d of cohort %d", got, cw.Cohort)
	}

	refPrep, cluPrep := rw.AvgPrepareS2(), cw.AvgPrepareS2()
	if cluPrep < 0.5*refPrep || cluPrep > 2.5*refPrep {
		t.Errorf("avg prepare S2: cluster %.2fs outside [0.5, 2.5]× single %.2fs", cluPrep, refPrep)
	}
	refFin, cluFin := rw.AvgFinishS1(), cw.AvgFinishS1()
	if cluFin < 0.5*refFin || cluFin > 2.5*refFin {
		t.Errorf("avg finish S1: cluster %.2fs outside [0.5, 2.5]× single %.2fs", cluFin, refFin)
	}
	if d := rw.Continuity() - cw.Continuity(); d > 0.25 {
		t.Errorf("continuity: cluster %.4f more than 0.25 below single %.4f", cw.Continuity(), rw.Continuity())
	}
	if cw.Overhead() > 4*rw.Overhead() || cw.Overhead() <= 0 {
		t.Errorf("overhead: cluster %.4f vs single %.4f", cw.Overhead(), rw.Overhead())
	}
}

// TestClusterEventSurvivesLossBurst runs the lossy-uplink scenario
// sharded: a 25% loss burst is already breaking over the control plane
// when the switch directive must go out, so the event only lands
// through the link layer's retries — and the merged window must still
// complete.
func TestClusterEventSurvivesLossBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy multi-shard run takes several seconds")
	}
	if raceEnabled && stdruntime.NumCPU() < 2 {
		t.Skip("race build on a single CPU saturates the pacer (see race_on_test.go)")
	}
	sc := scenario.LossyUplink().Scaled(45)
	res := runCluster(t, sc, 2, 50)

	var sw *sim.SwitchMetrics
	for _, w := range res.Windows {
		if w.Kind == "switch" {
			sw = w
			break
		}
	}
	if sw == nil {
		t.Fatalf("no switch window in %d merged windows — the event never landed", len(res.Windows))
	}
	t.Logf("merged: %s", sw)
	t.Logf("net: delivered=%d lost=%d rereq=%d", sw.NetDelivered, sw.NetLost, sw.NetReRequests)
	if sw.Cohort == 0 {
		t.Fatal("empty merged cohort")
	}
	if got := len(sw.PrepareS2Times); got*2 < sw.Cohort {
		t.Errorf("only %d of cohort %d prepared the new stream under loss", got, sw.Cohort)
	}
	if sw.NetDelivered == 0 {
		t.Error("no shaped data deliveries recorded — the policy seam is dead")
	}
}

// TestClusterCountsOverruns runs a cluster whose period (50 µs of wall
// clock) no host can keep, so every period ends late: the shared pacing
// step must count the overruns on the coordinator's runner and on an
// agent's — the health table, the overruns counter and the benchmark's
// runtime.overrun_share all read these.
func TestClusterCountsOverruns(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "overrun", Nodes: 24, M: 5, Seed: 3, Horizon: 20, Duration: 30,
		Events: []sim.Event{sim.SwitchAt(5, -1)},
	}
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	_, errs := runClusterOpts(t, sc, 1, 20000,
		func(cfg *Config) {
			cfg.Obs = &obs.Obs{Reg: regs[0]}
			// Unpaced shards drift apart by more ticks than the production
			// detector tolerates; this test is not about failover.
			cfg.Tuning = Tuning{SuspectAfter: 1 << 20}
		},
		func(_ int, jc *JoinConfig) { jc.Obs = &obs.Obs{Reg: regs[1]} })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	for shard, reg := range regs {
		if got := reg.Counter("gossip_overruns_total", "").Value(); got == 0 {
			t.Errorf("shard %d: gossip_overruns_total = 0 on a run that overran every period", shard)
		}
	}
}

// TestClusterReplaysJoins runs a flash crowd sharded: the coordinator
// resolves the crowd into join specs and every worker replays them into
// its own copy of the overlay (Runner.applyJoin), which fails the
// worker's run if its graph assigns a joiner another id than the
// resolver did. Every process must agree, every joiner must be spawned
// by exactly one owner — the merged switch window counts the initial
// population plus the crowd — and the merged windows must pass the live
// invariants.
func TestClusterReplaysJoins(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard flash-crowd run takes several seconds")
	}
	if raceEnabled && stdruntime.NumCPU() < 2 {
		t.Skip("race build on a single CPU saturates the pacer (see race_on_test.go)")
	}
	const initial, crowd = 45, 15
	sc := &scenario.Scenario{
		Name: "sharded-crowd", Nodes: initial, M: 5, Seed: 11, Spread: 10, Horizon: 80,
		Events: []sim.Event{
			sim.FlashCrowdAt(15, crowd, 100),
			sim.MeasureAt(16, 10),
			sim.SwitchAt(35, -1),
		},
	}
	res := runCluster(t, sc, 2, 50)
	if len(res.Windows) != 2 {
		t.Fatalf("%d merged windows, want the measure and the switch window", len(res.Windows))
	}
	sw := res.Windows[1]
	t.Logf("merged: %s", sw)
	if sw.Kind != "switch" || sw.Nodes != initial+crowd {
		t.Errorf("switch window %q over %d nodes, want %d: the crowd was not spawned once per joiner", sw.Kind, sw.Nodes, initial+crowd)
	}
	scfg, err := sc.Config(sim.Fast)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckLiveInvariants(scfg, res); err != nil {
		t.Errorf("live invariants: %v", err)
	}
}
