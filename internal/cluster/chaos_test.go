package cluster

import (
	"errors"
	stdruntime "runtime"
	"strings"
	"testing"
	"time"

	"gossipstream/internal/chaos"
	"gossipstream/internal/obs"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

// chaosTuning shrinks the failure detector and the report timeout so a
// failover resolves inside a test run.
var chaosTuning = Tuning{
	SuspectAfter:  3,
	DeadAfter:     6,
	ReportTimeout: 15 * time.Second,
}

// runKilled runs PaperSingleSwitch at 60 nodes as a starter and two
// joiners under chaosTuning, with a scripted fail-stop of one worker at
// a worker tick. It requires that exactly that joiner died, that the
// detector failed exactly one shard over, and that the merged result
// passes the live invariant audit, told that its first crashes windows
// are crash switches the failover resolved beyond the script. It
// returns the result and the starter's registry.
func runKilled(t *testing.T, shard, tick, crashes int) (*sim.Result, *obs.Registry) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-shard chaos run takes several seconds")
	}
	if raceEnabled && stdruntime.NumCPU() < 2 {
		t.Skip("race build on a single CPU saturates the pacer (see race_on_test.go)")
	}
	sc := scenario.PaperSingleSwitch().Scaled(60)
	plan := &chaos.Plan{Faults: []chaos.Fault{{Shard: shard, Tick: tick, Kind: chaos.Kill}}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, errs := runClusterOpts(t, sc, 2, 50,
		func(cfg *Config) {
			cfg.Obs = &obs.Obs{Reg: reg}
			cfg.Tuning = chaosTuning
		},
		func(_ int, jc *JoinConfig) { jc.Chaos = plan })

	killed := 0
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, chaos.ErrKilled):
			killed++
		default:
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if killed != 1 {
		t.Fatalf("%d joiners died, the plan kills exactly one", killed)
	}
	if got := reg.Counter("gossip_worker_failovers_total", "").Value(); got != 1 {
		t.Errorf("gossip_worker_failovers_total = %d, want 1", got)
	}
	scfg, err := sc.Config(sim.Fast)
	if err != nil {
		t.Fatal(err)
	}
	var unscripted []sim.Event
	for _, w := range res.Windows[:min(crashes, len(res.Windows))] {
		unscripted = append(unscripted, sim.CrashAt(w.Tick, w.NewSource))
	}
	if err := sim.CheckLiveInvariants(scfg, res, unscripted...); err != nil {
		t.Errorf("live invariants: %v", err)
	}
	return res, reg
}

// TestClusterSurvivesWorkerKill is the in-process half of the tentpole:
// three shards over UDP loopback, a scripted fail-stop kills one worker
// mid-run, and the merged run must still complete — the dead shard's
// peers reassigned to the survivors, exactly one failover counted, and
// the merged result passing the live invariant audit.
func TestClusterSurvivesWorkerKill(t *testing.T) {
	// Shard 1 owns the scripted switch's old source (see the parity
	// test), so killing shard 2 exercises the pure reassignment path.
	res, reg := runKilled(t, 2, 12, 0)

	if got := reg.Counter("gossip_shards_reassigned_total", "").Value(); got != 1 {
		t.Errorf("gossip_shards_reassigned_total = %d, want 1", got)
	}
	if got := reg.Counter("gossip_peers_respawned_total", "").Value(); got < 10 {
		t.Errorf("gossip_peers_respawned_total = %d, want the dead shard's ~20 listeners", got)
	}
	if got := reg.Counter("gossip_workers_suspected_total", "").Value(); got < 1 {
		t.Errorf("gossip_workers_suspected_total = %d, want >= 1", got)
	}

	var sw *sim.SwitchMetrics
	for _, w := range res.Windows {
		if w.Kind == "switch" {
			sw = w
			break
		}
	}
	if sw == nil {
		t.Fatalf("no switch window in %d merged windows — the run never switched after the failover", len(res.Windows))
	}
	t.Logf("merged: %s", sw)
	if sw.Cohort < 50 {
		t.Errorf("merged cohort %d lost the dead shard's peers (population 60)", sw.Cohort)
	}
	if sw.UnfinishedS1 != 0 || sw.UnpreparedS2 != 0 {
		t.Errorf("incomplete window after failover: unfinished=%d unprepared=%d", sw.UnfinishedS1, sw.UnpreparedS2)
	}
}

// TestClusterSourceOwnerKilled kills the shard that owns the live
// source (shard 1) long before the scripted switch: the failover finds
// the source among the dead shard's peers and resolves an unscripted
// crash switch onto a survivor, whose window is a failure window and
// the one window no scripted event opens.
func TestClusterSourceOwnerKilled(t *testing.T) {
	res, _ := runKilled(t, 1, 12, 1)
	if len(res.Windows) == 0 {
		t.Fatal("no merged windows")
	}
	first := res.Windows[0]
	t.Logf("first window: %s", first)
	if first.Kind != "switch" || !first.Failure {
		t.Errorf("first window kind %q failure %v, want the failover's crash switch", first.Kind, first.Failure)
	}
	if first.Tick >= 40 {
		t.Errorf("first window opens at tick %d, want the failover's tick, before the scripted switch at 40", first.Tick)
	}
}

// TestClusterStopSourceOwnerKilled kills the old source's shard a few
// ticks before the scripted switch at tick 40, so the coordinator's
// stop-source request is still unanswered when the detector declares
// the shard dead: the failover turns the held switch into a crash
// handoff, and the switch window is a failure window.
func TestClusterStopSourceOwnerKilled(t *testing.T) {
	res, _ := runKilled(t, 1, 38, 0)
	if len(res.Windows) == 0 {
		t.Fatal("no merged windows")
	}
	first := res.Windows[0]
	t.Logf("first window: %s", first)
	if first.Kind != "switch" || !first.Failure {
		t.Errorf("first window kind %q failure %v, want the held switch resolved as a crash", first.Kind, first.Failure)
	}
	if first.Tick < 40 {
		t.Errorf("first window opens at tick %d, before the scripted switch at 40", first.Tick)
	}
}

// TestClusterHangOnlySuspects scripts a worker hang (plus ack-drop and
// delayed-status windows on the other worker): the detector must
// suspect the wedged shard — the transport's reader keeps answering
// keepalives — but never declare it dead, and the run completes with
// zero failovers once the shard wakes up.
func TestClusterHangOnlySuspects(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard chaos run takes several seconds")
	}
	if raceEnabled && stdruntime.NumCPU() < 2 {
		t.Skip("race build on a single CPU saturates the pacer (see race_on_test.go)")
	}
	sc := scenario.PaperSingleSwitch().Scaled(60)
	plan := &chaos.Plan{Faults: []chaos.Fault{
		{Shard: 1, Tick: 12, Kind: chaos.Hang, Ticks: 8},
		{Shard: 2, Tick: 20, Kind: chaos.DelayReports, Ticks: 5},
		{Shard: 2, Tick: 38, Kind: chaos.DropAcks, Ticks: 6},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, errs := runClusterOpts(t, sc, 2, 50,
		func(cfg *Config) {
			cfg.Obs = &obs.Obs{Reg: reg}
			// A hung worker must survive: suspicion comes fast, death
			// far beyond the scripted hang.
			cfg.Tuning = Tuning{SuspectAfter: 2, DeadAfter: 40, ReportTimeout: 15 * time.Second}
		},
		func(_ int, jc *JoinConfig) { jc.Chaos = plan })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}

	if got := reg.Counter("gossip_worker_failovers_total", "").Value(); got != 0 {
		t.Errorf("gossip_worker_failovers_total = %d after a mere hang, want 0", got)
	}
	if got := reg.Counter("gossip_workers_suspected_total", "").Value(); got < 1 {
		t.Errorf("gossip_workers_suspected_total = %d, want >= 1 for an 8-tick hang", got)
	}

	var sw *sim.SwitchMetrics
	for _, w := range res.Windows {
		if w.Kind == "switch" {
			sw = w
			break
		}
	}
	if sw == nil {
		t.Fatalf("no switch window in %d merged windows", len(res.Windows))
	}
	t.Logf("merged: %s", sw)
	if sw.Cohort < 50 {
		t.Errorf("merged cohort %d lost peers to a mere hang (population 60)", sw.Cohort)
	}
}

// TestClusterRejectsFalseFailover runs the lossy-uplink scenario — 5%
// baseline loss with a scripted 25% burst breaking over the switch —
// under an aggressively fast detector. Every scripted network fault is
// resolved by the coordinator itself, so the detector must excuse the
// silence it causes: zero suspicions, zero failovers, and the merged
// window still completes through the link layer's retries.
func TestClusterRejectsFalseFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy multi-shard run takes several seconds")
	}
	if raceEnabled && stdruntime.NumCPU() < 2 {
		t.Skip("race build on a single CPU saturates the pacer (see race_on_test.go)")
	}
	sc := scenario.LossyUplink().Scaled(45)
	reg := obs.NewRegistry()
	res, errs := runClusterOpts(t, sc, 2, 50,
		func(cfg *Config) {
			cfg.Obs = &obs.Obs{Reg: reg}
			cfg.Tuning = Tuning{SuspectAfter: 2, DeadAfter: 4, ReportTimeout: 15 * time.Second}
		}, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}

	if got := reg.Counter("gossip_worker_failovers_total", "").Value(); got != 0 {
		t.Errorf("gossip_worker_failovers_total = %d on a loss-burst-only run, want 0", got)
	}
	if got := reg.Counter("gossip_workers_suspected_total", "").Value(); got != 0 {
		t.Errorf("gossip_workers_suspected_total = %d, want 0 (scripted loss is excused)", got)
	}

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
	if sw.Cohort == 0 {
		t.Fatal("empty merged cohort")
	}
	if got := len(sw.PrepareS2Times); got*2 < sw.Cohort {
		t.Errorf("only %d of cohort %d prepared the new stream under loss", got, sw.Cohort)
	}

	scfg, err := sc.Config(sim.Fast)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckLiveInvariants(scfg, res); err != nil {
		t.Errorf("live invariants: %v", err)
	}
}

// TestClusterErrorsOnSilentShard: a worker that was never failed over
// but never delivered a status makes the run an error naming the shard,
// not a merged result. The detector is off and the coordinator unpaced,
// so all 30 coordinator ticks pass while the one joiner is wedged at its
// first tick; it wakes to the finish directive and reports, statusless.
func TestClusterErrorsOnSilentShard(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "silent", Nodes: 24, M: 5, Seed: 3, Horizon: 20, Duration: 30,
		Events: []sim.Event{sim.SwitchAt(5, -1)},
	}
	// 40000 periods of 50 µs: a 2 s hang, far past the coordinator's run.
	plan := &chaos.Plan{Faults: []chaos.Fault{{Shard: 1, Tick: 0, Kind: chaos.Hang, Ticks: 40000}}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	_, errs, err := launchCluster(t, sc, 1, 20000,
		func(cfg *Config) { cfg.Tuning = Tuning{SuspectAfter: 1 << 20} },
		func(_ int, jc *JoinConfig) { jc.Chaos = plan })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("serve returned %v, want an error naming the silent shard 1", err)
	}
}
