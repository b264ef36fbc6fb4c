package sim

import (
	"math/rand"
	"testing"

	"gossipstream/internal/overlay"
)

func testTopology(t testing.TB, n int, seed int64) *overlay.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := overlay.Generate(overlay.KindPreferential, n, 1, rng)
	overlay.AugmentMinDegree(g, 5, rng)
	return g
}

func TestSmokeFastVsNormal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	run := func(factory AlgorithmFactory) *SwitchMetrics {
		g := testTopology(t, 300, 42)
		s, err := New(singleSwitch(Config{
			Graph: g, Seed: 7, NewAlgorithm: factory, Qs: 50,
			HorizonTicks: 150, JoinSpreadTicks: 20, TrackRatios: true,
		}, 40, 17))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FirstSwitch()
	}
	fast := run(Fast)
	normal := run(Normal)
	t.Logf("fast:   %v", fast)
	t.Logf("normal: %v", normal)
	t.Logf("fast   finish=%.2f prepare=%.2f maxPrep=%.2f ticks=%d", fast.AvgFinishS1(), fast.AvgPrepareS2(), fast.MaxPrepareS2(), fast.MeasuredTicks)
	t.Logf("normal finish=%.2f prepare=%.2f maxPrep=%.2f ticks=%d", normal.AvgFinishS1(), normal.AvgPrepareS2(), normal.MaxPrepareS2(), normal.MeasuredTicks)
	if fast.UnpreparedS2 > 0 || normal.UnpreparedS2 > 0 {
		t.Errorf("unprepared nodes: fast=%d normal=%d", fast.UnpreparedS2, normal.UnpreparedS2)
	}
}
