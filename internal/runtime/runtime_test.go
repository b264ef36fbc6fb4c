package runtime

import (
	"runtime"
	"testing"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

// raceSmokeScenario exercises the full live event alphabet in one short
// run: handoff, crash, demote round-trip, churn burst, flash crowd,
// bandwidth shift, latency storm, loss burst, partition and heal — the
// -race CI scenario for the concurrent machinery (peer goroutines,
// shaped transport timers, control plane, policy mutation). The live run
// resolves the simulator's experiment, so the seed is one whose crash
// does not strand the whole cohort: on many seeds (3 among them) the
// crash truncates S1 past a segment no survivor holds, nobody finishes
// S1 and the measure window plays nothing, in the simulator as live (the
// extinction defect of ROADMAP direction 2 (c)).
func raceSmokeScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "live-race-smoke",
		Desc:        "every live event kind in 90 ticks",
		Nodes:       50,
		M:           5,
		Seed:        14,
		Spread:      8,
		Horizon:     25,
		Net:         true,
		NetLoss:     0.02,
		NetJitterMS: 150,
		ChurnLeave:  0.01,
		ChurnJoin:   0.01,
		Duration:    90,
		Events: []sim.Event{
			sim.LatencyShiftAt(10, 4),
			sim.SwitchAt(14, -1),
			sim.LossBurstAt(16, 8, 0.2),
			sim.LatencyShiftAt(22, 1),
			sim.PartitionAt(26, 0.4),
			sim.HealAt(34),
			sim.BandwidthShiftAt(38, 0.8),
			sim.FlashCrowdAt(42, 10, 100),
			sim.ChurnBurstAt(46, 6, 0.05, 0.05),
			// Demote the first retired speaker back to listener duty
			// before the crash retires (and kills) the second one.
			sim.DemoteAt(50, -1),
			sim.CrashAt(52, -1),
			sim.BandwidthShiftAt(74, 1.0),
			sim.MeasureAt(76, 10),
		},
	}
}

// TestLiveEventAlphabetSmoke runs the kitchen-sink scenario on the
// channel transport and checks the run survives with sane metrics.
// This is the CI -race job's main target.
func TestLiveEventAlphabetSmoke(t *testing.T) {
	sc := raceSmokeScenario()
	if err := sc.Validate(); err != nil {
		t.Fatalf("smoke scenario invalid: %v", err)
	}
	r, err := FromScenario(sc, sim.Fast, Options{TimeScale: 100})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 3 {
		t.Fatalf("got %d windows, want 3 (handoff, crash, measure)", len(res.Windows))
	}
	for _, w := range res.Windows {
		if w.Cohort == 0 {
			t.Errorf("window %d: empty cohort", w.Window)
		}
		if w.PlayedSegments == 0 {
			t.Errorf("window %d: nothing played", w.Window)
		}
	}
	if res.Windows[0].Kind != "switch" || res.Windows[1].Failure != true || res.Windows[2].Kind != "measure" {
		t.Errorf("window shapes: %s / %s / %s", res.Windows[0], res.Windows[1], res.Windows[2])
	}
	st := r.Stats()
	if st.Transport.DataDelivered == 0 {
		t.Error("no data frames delivered")
	}
	if st.Transport.DataLost == 0 {
		t.Error("a 2% lossy run with a partition lost nothing — shaping is not wired")
	}
	if st.Periods != 90 {
		t.Errorf("ran %d periods, want the explicit duration 90", st.Periods)
	}
}

// TestLiveUDPScenario runs a short lossless scenario over real UDP
// loopback sockets end to end.
func TestLiveUDPScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("udp scenario run takes a few seconds")
	}
	if raceEnabled && runtime.NumCPU() < 2 {
		t.Skip("race build on a single CPU overflows the socket buffers (see race_on_test.go)")
	}
	sc := scenario.PaperSingleSwitch().Scaled(40)
	tr := NewUDPTransport(9)
	defer tr.Close()
	r, err := FromScenario(sc, sim.Fast, Options{Transport: tr, TimeScale: 100})
	if err != nil {
		t.Skipf("udp transport unavailable: %v", err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 1 || res.Windows[0].Kind != "switch" {
		t.Fatalf("windows: %v", res.Windows)
	}
	w := res.Windows[0]
	if w.Cohort == 0 || len(w.PrepareS2Times) == 0 || w.PlayedSegments == 0 {
		t.Fatalf("empty metrics over udp: %s", w)
	}
	if st := r.Stats().Transport; st.DataDelivered == 0 {
		t.Fatal("no datagrams delivered")
	}
}

// TestRunnerLeavesCallerTransportOpen pins transport ownership: a runner
// closes only the transport it created. A caller-supplied UDP transport
// still carries frames after Run (the cluster's report exchange rides it
// past FinishShard); the channel transport a runner made for itself is
// closed.
func TestRunnerLeavesCallerTransportOpen(t *testing.T) {
	sc := scenario.PaperSingleSwitch().Scaled(20)
	sc.Events = []sim.Event{sim.SwitchAt(3, -1)}
	sc.Spread = 0
	sc.Horizon = 5
	tr := NewUDPTransport(13)
	defer tr.Close()
	r, err := FromScenario(sc, sim.Fast, Options{Transport: tr, TimeScale: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	ep, err := tr.Open(1000)
	if err != nil {
		t.Fatalf("caller's transport closed by the runner: %v", err)
	}
	ep.Send(Frame{Kind: FrameRequest, Msg: netmodel.Message{To: 1000, Seg: 7}})
	if f := recvOne(t, ep, "request after Run"); f.Kind != FrameRequest || f.Msg.Seg != 7 {
		t.Fatalf("got %+v", f)
	}

	own, err := FromScenario(sc, sim.Fast, Options{TimeScale: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := own.Run(); err != nil {
		t.Fatal(err)
	}
	ch := own.tr.(*ChanTransport)
	ch.mu.RLock()
	closed := ch.closed
	ch.mu.RUnlock()
	if !closed {
		t.Fatal("the runner left its own channel transport open")
	}
}

// TestLiveRunTwiceFails pins the one-shot contract.
func TestLiveRunTwiceFails(t *testing.T) {
	sc := scenario.PaperSingleSwitch().Scaled(20)
	sc.Events = []sim.Event{sim.SwitchAt(3, -1)}
	sc.Spread = 0
	sc.Horizon = 5
	r, err := FromScenario(sc, sim.Fast, Options{TimeScale: 200})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

// TestLiveStatsCountDenies: a contended run (the paper's single switch,
// where congested suppliers refuse a large share of requests) reports the
// refusals and the peers' deliveries in Stats.
func TestLiveStatsCountDenies(t *testing.T) {
	sc := scenario.PaperSingleSwitch().Scaled(40)
	r, err := FromScenario(sc, sim.Fast, Options{TimeScale: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	t.Logf("%d delivered, %d denies, %d duplicate deliveries, %d data frames through the transport",
		st.Delivered, st.Denies, st.Dupes, st.Transport.DataDelivered)
	if st.Delivered == 0 || st.Denies == 0 {
		t.Fatalf("a contended run reports %d delivered segments and %d denies", st.Delivered, st.Denies)
	}
	if st.Delivered+st.Dupes > st.Transport.DataDelivered {
		t.Fatalf("peers landed %d+%d data frames, the transport delivered %d", st.Delivered, st.Dupes, st.Transport.DataDelivered)
	}
}
