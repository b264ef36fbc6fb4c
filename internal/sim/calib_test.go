package sim

import (
	"os"
	"testing"
)

// TestCalibration sweeps warm-up lengths and sizes to locate the paper's
// operating regime (backlog ~100-200 segments, 20-30% reduction ratio).
// Diagnostic; run with GOSSIPSTREAM_CALIBRATE=1.
func TestCalibration(t *testing.T) {
	if os.Getenv("GOSSIPSTREAM_CALIBRATE") == "" {
		t.Skip("calibration sweep; set GOSSIPSTREAM_CALIBRATE=1 to run")
	}
	for _, tc := range []struct {
		n, warm, spread int
		shared          bool
	}{
		{300, 40, 25, true}, {1000, 40, 25, true}, {300, 45, 30, true},
		{1000, 45, 30, true}, {2000, 45, 30, true}, {1000, 50, 35, true},
	} {
		run := func(factory AlgorithmFactory) *SwitchMetrics {
			g := testTopology(t, tc.n, 42)
			s, err := New(singleSwitch(Config{
				Graph: g, Seed: 7, NewAlgorithm: factory, Qs: 50,
				HorizonTicks: 250, FirstSource: g.MinDegreeNode(),
				SharedOutbound: tc.shared, JoinSpreadTicks: tc.spread,
			}, tc.warm, -1))
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
		red := (normal.AvgPrepareS2() - fast.AvgPrepareS2()) / normal.AvgPrepareS2()
		t.Logf("n=%4d warm=%3d spread=%3d shared=%v | fast: fin=%6.2f prep=%6.2f | normal: fin=%6.2f prep=%6.2f | reduction=%5.1f%% (unprep f=%d n=%d)",
			tc.n, tc.warm, tc.spread, tc.shared, fast.AvgFinishS1(), fast.AvgPrepareS2(),
			normal.AvgFinishS1(), normal.AvgPrepareS2(), red*100,
			fast.UnpreparedS2, normal.UnpreparedS2)
	}
}
