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

// chaosTuning shrinks the failure detector and the blocking timeouts so
// a failover resolves inside a test run.
var chaosTuning = Tuning{
	SuspectAfter:  3,
	DeadAfter:     6,
	CallTimeout:   10 * time.Second,
	ReportTimeout: 15 * time.Second,
}

// TestClusterSurvivesWorkerKill is the in-process half of the tentpole:
// three shards over UDP loopback, a scripted fail-stop kills one worker
// mid-run, and the merged run must still complete — the dead shard's
// peers reassigned to the survivors, exactly one failover counted, and
// the merged result passing the live invariant audit.
func TestClusterSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard chaos run takes several seconds")
	}
	if raceEnabled && stdruntime.NumCPU() < 2 {
		t.Skip("race build on a single CPU saturates the pacer (see race_on_test.go)")
	}
	sc := scenario.PaperSingleSwitch().Scaled(60)
	// Shard 1 owns the scripted switch's old source (see the parity
	// test), so killing shard 2 exercises the pure reassignment path.
	plan := &chaos.Plan{Faults: []chaos.Fault{
		{Shard: 2, Tick: 12, Kind: chaos.Kill},
	}}
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

	scfg, err := sc.Config(sim.Fast)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.CheckLiveInvariants(scfg, res); err != nil {
		t.Errorf("live invariants: %v", err)
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
			cfg.Tuning = Tuning{SuspectAfter: 2, DeadAfter: 40,
				CallTimeout: 10 * time.Second, ReportTimeout: 15 * time.Second}
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
			cfg.Tuning = Tuning{SuspectAfter: 2, DeadAfter: 4,
				CallTimeout: 10 * time.Second, ReportTimeout: 15 * time.Second}
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
