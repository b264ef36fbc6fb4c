package scenario

import (
	"fmt"
	"testing"

	"gossipstream/internal/sim"
)

// TestNetNilMatchesGolden pins the classic transport (Config.Net == nil)
// bit for bit on two library scenarios: any drift in the nil path — an
// extra RNG draw, a reordered delivery, a changed phase — shows up here
// as a golden mismatch. Until the sharded streams moved to engine.Source
// with one plan stream per node, these constants were the pre-netmodel
// engine's, carried unchanged since the transport subsystem landed; they
// were re-captured once at that move, and that lineage ends there.
func TestNetNilMatchesGolden(t *testing.T) {
	t.Run("serial-handoff-chain-160", func(t *testing.T) {
		cfg, err := SerialHandoffChain().Scaled(160).Config(sim.Fast)
		if err != nil {
			t.Fatal(err)
		}
		cfg.TrackRatios = true
		res := mustRun(t, cfg)
		want := []string{
			"kind=switch tick=40 old=2 new=41 cohort=158 ctrl=18412760 data=1249597440 played=40226 stalled=7760 finish=25.734177 prepare=20.474684 start=26.949045 nf=0 np=0 measured=31",
			"kind=switch tick=160 old=41 new=97 cohort=157 ctrl=20194640 data=1437419520 played=51446 stalled=1467 finish=32.140127 prepare=20.898089 start=33.116129 nf=0 np=0 measured=34",
			"kind=switch tick=280 old=97 new=155 cohort=156 ctrl=30885920 data=2152089600 played=74192 stalled=6220 finish=50.583333 prepare=21.365385 start=51.217742 nf=0 np=0 measured=52",
		}
		if len(res.Windows) != len(want) {
			t.Fatalf("windows = %d, want %d", len(res.Windows), len(want))
		}
		for i, w := range res.Windows {
			if got := goldenLine(w); got != want[i] {
				t.Errorf("window %d drifted from the golden run:\n got %s\nwant %s", i, got, want[i])
			}
		}
	})
	t.Run("paper-single-switch-150-normal", func(t *testing.T) {
		cfg, err := PaperSingleSwitch().Scaled(150).Config(sim.Normal)
		if err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, cfg)
		w := res.FirstSwitch()
		got := fmt.Sprintf("cohort=%d ctrl=%d data=%d finish=%.6f prepare=%.6f nf=%d np=%d measured=%d",
			w.Cohort, w.ControlBits, w.DataBits, w.AvgFinishS1(), w.AvgPrepareS2(),
			w.UnfinishedS1, w.UnpreparedS2, w.MeasuredTicks)
		want := "cohort=148 ctrl=16516800 data=1211443200 finish=27.222973 prepare=22.391892 nf=0 np=0 measured=30"
		if got != want {
			t.Errorf("single switch drifted from the golden run:\n got %s\nwant %s", got, want)
		}
	})
}

func goldenLine(w *sim.SwitchMetrics) string {
	return fmt.Sprintf("kind=%s tick=%d old=%d new=%d cohort=%d ctrl=%d data=%d played=%d stalled=%d finish=%.6f prepare=%.6f start=%.6f nf=%d np=%d measured=%d",
		w.Kind, w.Tick, w.OldSource, w.NewSource, w.Cohort, w.ControlBits, w.DataBits,
		w.PlayedSegments, w.StalledSlots, w.AvgFinishS1(), w.AvgPrepareS2(), w.AvgStartS2(),
		w.UnfinishedS1, w.UnpreparedS2, w.MeasuredTicks)
}
