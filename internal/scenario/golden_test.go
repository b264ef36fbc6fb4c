package scenario

import (
	"fmt"
	"testing"

	"gossipstream/internal/sim"
)

// TestNetNilMatchesPreNetmodelGolden pins the netmodel equivalence
// acceptance criterion: a run with Config.Net == nil is bit-identical to
// the engine as it was before the transport subsystem existed. The
// constants below were captured from the pre-netmodel HEAD (PR 2) with
// exactly these configurations; any drift in the nil path — an extra
// RNG draw, a reordered delivery, a changed phase — shows up here as a
// golden mismatch.
func TestNetNilMatchesPreNetmodelGolden(t *testing.T) {
	t.Run("serial-handoff-chain-160", func(t *testing.T) {
		cfg, err := SerialHandoffChain().Scaled(160).Config(sim.Fast)
		if err != nil {
			t.Fatal(err)
		}
		cfg.TrackRatios = true
		res := mustRun(t, cfg)
		want := []string{
			"kind=switch tick=40 old=2 new=41 cohort=158 ctrl=18412760 data=1223884800 played=40557 stalled=7358 finish=25.708861 prepare=19.594937 start=26.923567 nf=0 np=0 measured=31",
			"kind=switch tick=160 old=41 new=97 cohort=157 ctrl=20194640 data=1429708800 played=52217 stalled=414 finish=32.471338 prepare=21.598726 start=33.441558 nf=0 np=0 measured=34",
			"kind=switch tick=280 old=97 new=155 cohort=156 ctrl=29698000 data=2133012480 played=76736 stalled=597 finish=48.448718 prepare=24.980769 start=49.307692 nf=0 np=0 measured=50",
		}
		if len(res.Windows) != len(want) {
			t.Fatalf("windows = %d, want %d", len(res.Windows), len(want))
		}
		for i, w := range res.Windows {
			if got := goldenLine(w); got != want[i] {
				t.Errorf("window %d drifted from the pre-netmodel engine:\n got %s\nwant %s", i, got, want[i])
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
		want := "cohort=148 ctrl=16516800 data=1203087360 finish=27.527027 prepare=21.256757 nf=0 np=0 measured=30"
		if got != want {
			t.Errorf("single switch drifted from the pre-netmodel engine:\n got %s\nwant %s", got, want)
		}
	})
}

func goldenLine(w *sim.SwitchMetrics) string {
	return fmt.Sprintf("kind=%s tick=%d old=%d new=%d cohort=%d ctrl=%d data=%d played=%d stalled=%d finish=%.6f prepare=%.6f start=%.6f nf=%d np=%d measured=%d",
		w.Kind, w.Tick, w.OldSource, w.NewSource, w.Cohort, w.ControlBits, w.DataBits,
		w.PlayedSegments, w.StalledSlots, w.AvgFinishS1(), w.AvgPrepareS2(), w.AvgStartS2(),
		w.UnfinishedS1, w.UnpreparedS2, w.MeasuredTicks)
}
