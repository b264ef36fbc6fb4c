// Cross-module integration tests: the full pipeline from a synthesized
// overlay trace through augmentation, simulation of both switch
// algorithms, aggregation, and figure formatting — the path cmd/sweep
// exercises, as a test.
package gossipstream_test

import (
	"math/rand"
	"strings"
	"testing"

	"gossipstream/internal/experiment"
	"gossipstream/internal/overlay"
	"gossipstream/internal/sim"
	"gossipstream/internal/trace"
)

// TestPipelineTraceToFigures drives a synthesized trace through every
// layer.
func TestPipelineTraceToFigures(t *testing.T) {
	// 1. Synthesize the crawl-like trace.
	tr := trace.Synthesize("integration", 150, 1, 314)

	// 2. Build and prepare the overlay exactly as Section 5.1 prescribes.
	g, err := tr.Graph()
	if err != nil {
		t.Fatal(err)
	}
	overlay.AugmentMinDegree(g, 5, rand.New(rand.NewSource(314)))
	if g.MinDegree() < 5 || !g.Connected() {
		t.Fatal("augmented overlay unhealthy")
	}

	// 3. Run the measured switch under both algorithms on clones.
	runOne := func(factory sim.AlgorithmFactory) *sim.Result {
		s, err := sim.New(sim.Config{
			Graph:           g.Clone(),
			Seed:            314,
			NewAlgorithm:    factory,
			Qs:              50,
			JoinSpreadTicks: 15,
			HorizonTicks:    150,
			FirstSource:     g.MinDegreeNode(),
			Script:          &sim.Script{Events: []sim.Event{sim.SwitchAt(30, -1)}},
			SharedOutbound:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := runOne(sim.Fast)
	normal := runOne(sim.Normal)
	if fast.FirstSwitch().UnpreparedS2 > 0 || normal.FirstSwitch().UnpreparedS2 > 0 {
		t.Fatalf("incomplete switch: fast=%d normal=%d unprepared",
			fast.FirstSwitch().UnpreparedS2, normal.FirstSwitch().UnpreparedS2)
	}

	// 4. Aggregate and format as the sweep harness does.
	rows := experiment.AggregateBySize([]experiment.PairSample{{
		N: 150, Fast: fast, Normal: normal,
	}})
	if len(rows) != 1 || rows[0].N != 150 {
		t.Fatalf("aggregation wrong: %+v", rows)
	}
	table := experiment.FormatSwitchTime(rows, false)
	if !strings.Contains(table, "150") || !strings.Contains(table, "%") {
		t.Fatalf("formatting broken:\n%s", table)
	}
}

// TestPipelineWorkloadSweepShapes checks the reproduction's headline
// shapes end-to-end at test scale, averaged over replicas: fast prepares
// S2 sooner, overheads match to a small margin, and the bit accounting is
// consistent with the 620-bit map / 30 kb segment arithmetic.
func TestPipelineWorkloadSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation integration test")
	}
	w := experiment.Paper()
	w.Sizes = []int{200}
	w.SeedsPerSize = 3
	w.Base.Events = []sim.Event{sim.SwitchAt(35, -1)}
	w.Base.Spread = 20
	samples, err := w.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	rows := experiment.AggregateBySize(samples)
	r := rows[0]
	if r.FastPrepareS2 >= r.NormalPrepareS2 {
		t.Errorf("fast prepare %.2f not below normal %.2f (averaged over %d replicas)",
			r.FastPrepareS2, r.NormalPrepareS2, r.Samples)
	}
	if r.FastOverhead <= 0 || r.NormalOverhead <= 0 {
		t.Error("overhead accounting missing")
	}
	if diff := r.FastOverhead - r.NormalOverhead; diff > 0.004 || diff < -0.004 {
		t.Errorf("overheads diverge: fast %.4f vs normal %.4f", r.FastOverhead, r.NormalOverhead)
	}
	for _, s := range samples {
		for _, res := range []*sim.SwitchMetrics{s.Fast.FirstSwitch(), s.Normal.FirstSwitch()} {
			if res.ControlBits%620 != 0 {
				t.Errorf("control bits %d not in 620-bit units", res.ControlBits)
			}
			if res.DataBits%(30*1024) != 0 {
				t.Errorf("data bits %d not in 30kb units", res.DataBits)
			}
		}
	}
}

// TestPipelineDynamicMatchesStaticDirection verifies the Figures 9-12
// claim at test scale: the dynamic environment preserves the fast-vs-
// normal direction.
func TestPipelineDynamicMatchesStaticDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation integration test")
	}
	w := experiment.Paper()
	w.Sizes = []int{200}
	w.SeedsPerSize = 3
	w = w.Dynamic()
	w.Base.Events = []sim.Event{sim.SwitchAt(35, -1)}
	w.Base.Spread = 20
	samples, err := w.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	r := experiment.AggregateBySize(samples)[0]
	if r.FastPrepareS2 >= r.NormalPrepareS2 {
		t.Errorf("dynamic: fast prepare %.2f not below normal %.2f",
			r.FastPrepareS2, r.NormalPrepareS2)
	}
}
