package sim

import (
	"math"
	"strings"
	"testing"

	"gossipstream/internal/bandwidth"
	"gossipstream/internal/overlay"
)

// singleSwitch gives cfg the paper's run shape — warm up, one planned
// switch at tick to node to (negative: a random successor), measured to
// the horizon — the one place this package's tests spell that script.
func singleSwitch(cfg Config, tick int, to overlay.NodeID) Config {
	cfg.Script = &Script{Events: []Event{SwitchAt(tick, to)}}
	return cfg
}

// quickSwitchTick is the tick quickConfig's switch fires at.
const quickSwitchTick = 30

func quickConfig(g *overlay.Graph, factory AlgorithmFactory) Config {
	return singleSwitch(Config{
		Graph:           g,
		Seed:            11,
		NewAlgorithm:    factory,
		Qs:              50,
		JoinSpreadTicks: 15,
		HorizonTicks:    200,
		FirstSource:     g.MinDegreeNode(),
		SharedOutbound:  true,
	}, quickSwitchTick, -1)
}

// TestConfigValidation pins the preconditions New checks itself: a Config
// without them cannot run at all. Whether the parameters are legal
// (first-source range, Qs ≤ B, churn fractions, net parameters, events
// that need the net directive) is scenario.Validate's question, pinned
// by internal/scenario's TestParseErrors.
func TestConfigValidation(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("nil graph accepted")
	}
	g := testTopology(t, 50, 1)
	if err := quickConfig(g, Fast).Validate(); err != nil {
		t.Errorf("complete config rejected: %v", err)
	}
	tiny := quickConfig(overlay.New(1), Fast)
	if err := tiny.Validate(); err == nil {
		t.Error("single-node graph accepted")
	}
	bad := quickConfig(g, nil)
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "NewAlgorithm") {
		t.Errorf("New without a scheduler: err = %v, want one naming NewAlgorithm", err)
	}
	// Every run is scripted: there is no implicit timeline to fall back on.
	bad = quickConfig(g, Fast)
	bad.Script = nil
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "Script") {
		t.Errorf("New with a nil Script: err = %v, want one naming Script", err)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	if Tau != 1.0 || bandwidth.PlayRate != 10 || Q != 10 || BufferCap != 600 || PerTick != 10 || ServeRounds != 3 {
		t.Errorf("constants diverge from Section 5.1: τ=%v p=%v Q=%v B=%v p·τ=%v rounds=%v",
			Tau, bandwidth.PlayRate, Q, BufferCap, PerTick, ServeRounds)
	}
	if src := bandwidth.SourceProfile(); src != (bandwidth.Profile{In: 0, Out: 6 * bandwidth.PlayRate}) {
		t.Errorf("source profile %+v, want zero inbound and 6p outbound", src)
	}
}

func TestRunCompletesAndMeasures(t *testing.T) {
	g := testTopology(t, 200, 3)
	s, err := New(quickConfig(g, Fast))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sw := res.FirstSwitch()
	if sw.Cohort < 190 {
		t.Errorf("cohort = %d, want ~198", sw.Cohort)
	}
	if sw.UnpreparedS2 > 0 || sw.UnfinishedS1 > 0 {
		t.Errorf("incomplete nodes: %d unfinished, %d unprepared", sw.UnfinishedS1, sw.UnpreparedS2)
	}
	if sw.AvgPrepareS2() <= 0 || math.IsNaN(sw.AvgPrepareS2()) {
		t.Errorf("prepare time = %v", sw.AvgPrepareS2())
	}
	if sw.AvgFinishS1() <= 0 || math.IsNaN(sw.AvgFinishS1()) {
		t.Errorf("finish time = %v", sw.AvgFinishS1())
	}
	if sw.DataBits == 0 || sw.ControlBits == 0 {
		t.Error("communication accounting empty")
	}
	if sw.Overhead() <= 0 || sw.Overhead() > 0.2 {
		t.Errorf("overhead = %v, implausible", sw.Overhead())
	}
}

func TestRunTwiceFails(t *testing.T) {
	g := testTopology(t, 60, 4)
	s, err := New(quickConfig(g, Fast))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("second Run succeeded")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *SwitchMetrics {
		g := testTopology(t, 150, 9)
		s, err := New(quickConfig(g, Fast))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FirstSwitch()
	}
	a, b := run(), run()
	if a.AvgPrepareS2() != b.AvgPrepareS2() || a.AvgFinishS1() != b.AvgFinishS1() {
		t.Errorf("identical seeds diverged: %v vs %v", a, b)
	}
	if a.DataBits != b.DataBits || a.ControlBits != b.ControlBits {
		t.Error("bit accounting diverged across identical seeds")
	}
}

func TestSeedSensitivity(t *testing.T) {
	g1 := testTopology(t, 150, 9)
	c1 := quickConfig(g1, Fast)
	s1, _ := New(c1)
	r1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	g2 := testTopology(t, 150, 9)
	c2 := quickConfig(g2, Fast)
	c2.Seed = 999
	s2, _ := New(c2)
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := r1.FirstSwitch(), r2.FirstSwitch()
	if w1.AvgPrepareS2() == w2.AvgPrepareS2() && w1.DataBits == w2.DataBits {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// invariantSim runs a simulation tick by tick, checking conservation
// invariants after every step. The switch fires through the event queue
// (the events phase at the start of its tick), exactly as Run drives it.
func TestTickInvariants(t *testing.T) {
	g := testTopology(t, 120, 5)
	cfg := quickConfig(g, Fast)
	total := quickSwitchTick + 40
	cfg.Script.Duration = total
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.tick = 0; s.tick < total; s.tick++ {
		prevPlayheads := make(map[overlay.NodeID]int64)
		for _, n := range s.nodes {
			prevPlayheads[n.id] = int64(n.Playhead)
		}
		s.step()
		seen := map[[2]int64]bool{}
		perNode := map[overlay.NodeID]int{}
		for si := range s.shards {
			for _, d := range s.shards[si].landed {
				key := [2]int64{int64(d.to), int64(d.seg)}
				if seen[key] {
					t.Fatalf("tick %d: duplicate delivery %v", s.tick, key)
				}
				seen[key] = true
				perNode[d.to]++
			}
		}
		for id, got := range perNode {
			n := s.nodes[id]
			// Inbound cap: rate·τ plus one carry segment.
			if float64(got) > n.profile.In*Tau+1 {
				t.Fatalf("tick %d: node %d received %d > inbound %v", s.tick, id, got, n.profile.In)
			}
		}
		for _, n := range s.nodes {
			if !n.alive {
				continue
			}
			adv := int64(n.Playhead) - prevPlayheads[n.id]
			if adv < 0 && n.Active {
				t.Fatalf("tick %d: node %d playhead moved backwards", s.tick, n.id)
			}
			if adv > int64(PerTick) && prevPlayheads[n.id] > 0 {
				t.Fatalf("tick %d: node %d played %d > p segments", s.tick, n.id, adv)
			}
			// A playing node must hold every segment it has played up to
			// the buffer horizon.
			if n.Active && n.Playhead > n.Anchor && !n.buf.Has(n.Playhead-1) {
				t.Fatalf("tick %d: node %d played a segment it does not hold", s.tick, n.id)
			}
		}
	}
}

func TestPrepareImpliesConsecutiveQs(t *testing.T) {
	g := testTopology(t, 150, 6)
	s, err := New(quickConfig(g, Fast))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, mb := range s.win.members {
		n := s.nodes[mb.id]
		if mb.prepareS2 != unset && n.alive {
			if got := n.buf.ConsecutiveFrom(s.s2Begin); got < s.cfg.Qs {
				t.Fatalf("node %d prepared with only %d consecutive S2 segments", mb.id, got)
			}
		}
	}
}

func TestFinishImpliesFullS1Playback(t *testing.T) {
	g := testTopology(t, 150, 6)
	s, err := New(quickConfig(g, Normal))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, mb := range s.win.members {
		n := s.nodes[mb.id]
		if mb.finishS1 != unset && n.Playhead <= s.s1End {
			t.Fatalf("node %d marked finished with playhead %d <= s1End %d", mb.id, n.Playhead, s.s1End)
		}
	}
}

func TestStartS2RequiresBothConditions(t *testing.T) {
	g := testTopology(t, 150, 6)
	s, err := New(quickConfig(g, Fast))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, mb := range s.win.members {
		if mb.startS2 == unset {
			continue
		}
		if mb.finishS1 == unset || mb.startS2 < mb.finishS1 {
			t.Fatalf("node %d started S2 at %d before finishing S1 (%d)", mb.id, mb.startS2, mb.finishS1)
		}
		if mb.prepareS2 == unset || mb.startS2 < mb.prepareS2 {
			t.Fatalf("node %d started S2 at %d before preparing (%d)", mb.id, mb.startS2, mb.prepareS2)
		}
	}
}

func TestOverheadMatchesWireArithmetic(t *testing.T) {
	// Control bits must be an exact multiple of the 620-bit map and data
	// bits of the 30 kb segment (Section 5.3).
	g := testTopology(t, 100, 7)
	s, err := New(quickConfig(g, Fast))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sw := res.FirstSwitch()
	if sw.ControlBits%620 != 0 {
		t.Errorf("control bits %d not a multiple of 620", sw.ControlBits)
	}
	if sw.DataBits%(30*1024) != 0 {
		t.Errorf("data bits %d not a multiple of 30 kb", sw.DataBits)
	}
}

func TestTrackRatiosSeries(t *testing.T) {
	g := testTopology(t, 150, 8)
	cfg := quickConfig(g, Normal)
	cfg.TrackRatios = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sw := res.FirstSwitch()
	u, d := sw.UndeliveredS1, sw.DeliveredS2
	if u == nil || d == nil || u.Len() == 0 || d.Len() == 0 {
		t.Fatal("ratio series missing")
	}
	// The undelivered ratio starts at 1 and ends at 0; delivered starts at
	// 0 and ends at 1 (Figure 5's envelope).
	if _, y := u.At(0); y < 0.9 {
		t.Errorf("undelivered ratio starts at %v, want ≈1", y)
	}
	if _, y := u.At(u.Len() - 1); y > 0.05 {
		t.Errorf("undelivered ratio ends at %v, want ≈0", y)
	}
	if _, y := d.At(0); y > 0.3 {
		t.Errorf("delivered ratio starts at %v, want ≈0", y)
	}
	if _, y := d.At(d.Len() - 1); y < 0.95 {
		t.Errorf("delivered ratio ends at %v, want ≈1", y)
	}
	// Monotone directions (within small tolerance for churnless runs).
	for i := 1; i < u.Len(); i++ {
		if u.Y[i] > u.Y[i-1]+1e-9 {
			t.Fatal("undelivered ratio increased")
		}
		if d.Y[i] < d.Y[i-1]-1e-9 {
			t.Fatal("delivered ratio decreased")
		}
	}
}

func TestDynamicEnvironmentRuns(t *testing.T) {
	g := testTopology(t, 200, 10)
	cfg := quickConfig(g, Fast)
	cfg.Churn = &ChurnConfig{LeaveFraction: 0.05, JoinFraction: 0.05}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sw := res.FirstSwitch()
	if sw.Cohort == 0 {
		t.Fatal("empty cohort under churn")
	}
	// At 5% departures per period most of the cohort leaves before the
	// switch completes; what matters is that the survivors are not
	// wedged: (nearly) every cohort node still alive at the end prepared.
	if sw.UnpreparedS2 > sw.Cohort/20 {
		t.Errorf("%d surviving cohort nodes never prepared (cohort %d)", sw.UnpreparedS2, sw.Cohort)
	}
	if len(sw.PrepareS2Times) == 0 {
		t.Error("nobody prepared under churn")
	}
}

func TestPerLinkModeRuns(t *testing.T) {
	g := testTopology(t, 150, 12)
	cfg := quickConfig(g, Fast)
	cfg.SharedOutbound = false
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sw := res.FirstSwitch()
	if sw.UnpreparedS2 > 0 {
		t.Errorf("%d unprepared in per-link mode", sw.UnpreparedS2)
	}
}

func TestPrefetchAblationDegradesThroughput(t *testing.T) {
	// Without the random prefetch the mesh degenerates toward an in-order
	// pipeline during streaming: delivery falls behind, so the undelivered
	// backlog at the switch is larger and S1 takes visibly longer to
	// finish (the substrate ablation's point).
	run := func(disable bool) float64 {
		g := testTopology(t, 150, 13)
		cfg := quickConfig(g, Fast)
		cfg.DisablePrefetch = disable
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FirstSwitch().AvgFinishS1()
	}
	with := run(false)
	without := run(true)
	if !(without > with) {
		t.Errorf("finish time with prefetch off (%v) not above prefetch on (%v)", without, with)
	}
}

func TestPinnedSources(t *testing.T) {
	g := testTopology(t, 100, 14)
	cfg := quickConfig(g, Fast)
	cfg.FirstSource = 3
	cfg = singleSwitch(cfg, quickSwitchTick, 7)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.oldSource != 3 || s.newSource != 7 {
		t.Errorf("sources = (%d, %d), want (3, 7)", s.oldSource, s.newSource)
	}
	if !s.nodes[7].isSource || s.nodes[7].profile.In != 0 {
		t.Error("new source not promoted")
	}
}

func TestSourcesExcludedFromCohort(t *testing.T) {
	g := testTopology(t, 100, 15)
	cfg := quickConfig(g, Fast)
	cfg.FirstSource = 3
	cfg = singleSwitch(cfg, quickSwitchTick, 7)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, mb := range s.win.members {
		if mb.id == 3 || mb.id == 7 {
			t.Fatalf("source %d in cohort", mb.id)
		}
	}
}

func TestContinuityAccounting(t *testing.T) {
	g := testTopology(t, 150, 6)
	s, err := New(quickConfig(g, Fast))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sw := res.FirstSwitch()
	if sw.PlayedSegments == 0 {
		t.Fatal("no playback recorded in the measurement window")
	}
	c := sw.Continuity()
	if c <= 0 || c > 1 {
		t.Fatalf("continuity = %v, outside (0,1]", c)
	}
	// During a switch some stalling is expected (nodes drain backlogs and
	// wait for S2), but the system must not be mostly stalled.
	if c < 0.5 {
		t.Errorf("continuity %v implausibly low", c)
	}
	// A window nothing played in reports perfect continuity by convention.
	if (&SwitchMetrics{}).Continuity() != 1 {
		t.Error("empty window continuity must be 1")
	}
}

func TestFastBeatsNormalOnPreparingTime(t *testing.T) {
	// The headline reproduction at test scale: averaged over topologies,
	// the fast algorithm prepares S2 sooner than the normal algorithm.
	var fastSum, normalSum float64
	const runs = 3
	for r := 0; r < runs; r++ {
		for _, alg := range []struct {
			factory AlgorithmFactory
			sum     *float64
		}{{Fast, &fastSum}, {Normal, &normalSum}} {
			g := testTopology(t, 250, int64(20+r))
			cfg := quickConfig(g, alg.factory)
			cfg.Seed = int64(100 + r)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			*alg.sum += res.FirstSwitch().AvgPrepareS2()
		}
	}
	if fastSum >= normalSum {
		t.Errorf("fast total prepare %.2f not below normal %.2f", fastSum, normalSum)
	}
	t.Logf("prepare time over %d runs: fast=%.2f normal=%.2f reduction=%.1f%%",
		runs, fastSum/runs, normalSum/runs, (normalSum-fastSum)/normalSum*100)
}
