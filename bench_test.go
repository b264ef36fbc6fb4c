// Package gossipstream's root benchmark harness: one testing.B entry per
// figure of the paper's evaluation (Section 5) and one per ablation of
// cmd/sweep -ablations. Each benchmark runs the corresponding experiment
// at a bench-friendly scale and reports the paper's metrics as custom
// units, so
//
//	go test -bench=Fig -benchmem
//
// regenerates the whole evaluation and
//
//	go test -bench=Ablation -benchmem
//
// the design-choice studies. cmd/sweep produces the full-scale runs.
package gossipstream_test

import (
	"fmt"
	"runtime"
	"testing"

	"gossipstream/internal/experiment"
	"gossipstream/internal/model"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

// benchWorkload scales the paper's setup down to benchmark-iteration cost
// while preserving every protocol parameter.
func benchWorkload() experiment.Workload {
	w := experiment.Paper()
	w.Sizes = []int{300}
	w.SeedsPerSize = 1
	return w
}

func reportRows(b *testing.B, rows []experiment.SizeRow) {
	b.Helper()
	if len(rows) == 0 {
		b.Fatal("no rows")
	}
	r := rows[len(rows)-1]
	b.ReportMetric(r.FastPrepareS2, "s-fast-prepare")
	b.ReportMetric(r.NormalPrepareS2, "s-normal-prepare")
	b.ReportMetric(r.Reduction*100, "%reduction")
}

// BenchmarkFig05RatioTrackStatic regenerates Figure 5: the undelivered/
// delivered ratio tracks in a static 1000-node network (bench scale: 300).
func BenchmarkFig05RatioTrackStatic(b *testing.B) {
	w := benchWorkload()
	for i := 0; i < b.N; i++ {
		rt, err := w.RunRatioTrack(300)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rt.NormalLastFinish, "s-normal-last-finish")
		b.ReportMetric(rt.NormalLastPrep, "s-normal-last-prepare")
		b.ReportMetric(rt.FastLastPrepare, "s-fast-last-prepare")
	}
}

// BenchmarkFig06FinishPrepareStatic regenerates Figure 6: average
// finishing time of S1 and preparing time of S2 per overlay size.
func BenchmarkFig06FinishPrepareStatic(b *testing.B) {
	w := benchWorkload()
	for i := 0; i < b.N; i++ {
		rows, err := w.RunSizeSweep()
		if err != nil {
			b.Fatal(err)
		}
		r := rows[len(rows)-1]
		b.ReportMetric(r.FastFinishS1, "s-fast-finish")
		b.ReportMetric(r.NormalFinishS1, "s-normal-finish")
		b.ReportMetric(r.FastPrepareS2, "s-fast-prepare")
		b.ReportMetric(r.NormalPrepareS2, "s-normal-prepare")
	}
}

// BenchmarkFig07SwitchTimeStatic regenerates Figure 7: average switch time
// and the reduction ratio.
func BenchmarkFig07SwitchTimeStatic(b *testing.B) {
	w := benchWorkload()
	for i := 0; i < b.N; i++ {
		rows, err := w.RunSizeSweep()
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkFig08OverheadStatic regenerates Figure 8: communication
// overhead (control bits / data bits).
func BenchmarkFig08OverheadStatic(b *testing.B) {
	w := benchWorkload()
	for i := 0; i < b.N; i++ {
		rows, err := w.RunSizeSweep()
		if err != nil {
			b.Fatal(err)
		}
		r := rows[len(rows)-1]
		b.ReportMetric(r.FastOverhead*100, "%fast-overhead")
		b.ReportMetric(r.NormalOverhead*100, "%normal-overhead")
	}
}

// BenchmarkFig09RatioTrackDynamic regenerates Figure 9 (ratio tracks under
// 5% churn per period).
func BenchmarkFig09RatioTrackDynamic(b *testing.B) {
	w := benchWorkload().Dynamic()
	for i := 0; i < b.N; i++ {
		rt, err := w.RunRatioTrack(300)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rt.FastLastPrepare, "s-fast-last-prepare")
		b.ReportMetric(rt.NormalLastPrep, "s-normal-last-prepare")
	}
}

// BenchmarkFig10FinishPrepareDynamic regenerates Figure 10.
func BenchmarkFig10FinishPrepareDynamic(b *testing.B) {
	w := benchWorkload().Dynamic()
	for i := 0; i < b.N; i++ {
		rows, err := w.RunSizeSweep()
		if err != nil {
			b.Fatal(err)
		}
		r := rows[len(rows)-1]
		b.ReportMetric(r.FastFinishS1, "s-fast-finish")
		b.ReportMetric(r.NormalFinishS1, "s-normal-finish")
	}
}

// BenchmarkFig11SwitchTimeDynamic regenerates Figure 11.
func BenchmarkFig11SwitchTimeDynamic(b *testing.B) {
	w := benchWorkload().Dynamic()
	for i := 0; i < b.N; i++ {
		rows, err := w.RunSizeSweep()
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkFig12OverheadDynamic regenerates Figure 12.
func BenchmarkFig12OverheadDynamic(b *testing.B) {
	w := benchWorkload().Dynamic()
	for i := 0; i < b.N; i++ {
		rows, err := w.RunSizeSweep()
		if err != nil {
			b.Fatal(err)
		}
		r := rows[len(rows)-1]
		b.ReportMetric(r.FastOverhead*100, "%fast-overhead")
		b.ReportMetric(r.NormalOverhead*100, "%normal-overhead")
	}
}

// BenchmarkModelOptimalSplit measures the closed-form Section 3 solution —
// the per-period cost every node pays to re-solve eq. (4).
func BenchmarkModelOptimalSplit(b *testing.B) {
	p := model.Params{Q: 10, Q1: 150, Q2: 50, P: 10, I: 15}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ConstrainedSplit(12, 4)
	}
}

// BenchmarkAblationRarity compares eq. (8) rarity against the traditional
// 1/n form the paper argues against.
func BenchmarkAblationRarity(b *testing.B) {
	w := benchWorkload()
	variants := experiment.PriorityVariants()
	ab := experiment.Ablation{Workload: w, N: 300, Baseline: "normal",
		Variants: []experiment.NamedFactory{variants[0], variants[1], variants[2]}}
	for i := 0; i < b.N; i++ {
		rows, err := ab.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].PrepareS2, "s-eq8-prepare")
		b.ReportMetric(rows[2].PrepareS2, "s-1overN-prepare")
	}
}

// BenchmarkAblationPriority compares the eq. (9) max-combination against
// urgency-only and rarity-only scoring.
func BenchmarkAblationPriority(b *testing.B) {
	w := benchWorkload()
	variants := experiment.PriorityVariants()
	ab := experiment.Ablation{Workload: w, N: 300, Baseline: "normal",
		Variants: []experiment.NamedFactory{variants[0], variants[1], variants[3], variants[4]}}
	for i := 0; i < b.N; i++ {
		rows, err := ab.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].PrepareS2, "s-max-prepare")
		b.ReportMetric(rows[2].PrepareS2, "s-urgency-prepare")
		b.ReportMetric(rows[3].PrepareS2, "s-rarity-prepare")
	}
}

// BenchmarkAblationRateSplit isolates the optimal I1/I2 split (Section 4's
// four cases) from the rest of the fast algorithm.
func BenchmarkAblationRateSplit(b *testing.B) {
	w := benchWorkload()
	ab := experiment.Ablation{Workload: w, N: 300, Baseline: "normal",
		Variants: experiment.SplitVariants()}
	for i := 0; i < b.N; i++ {
		rows, err := ab.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].PrepareS2, "s-with-split")
		b.ReportMetric(rows[2].PrepareS2, "s-no-split")
	}
}

// BenchmarkAblationNeighborCount probes the paper's "M=5 is usually a good
// practical choice" claim.
func BenchmarkAblationNeighborCount(b *testing.B) {
	w := benchWorkload()
	for i := 0; i < b.N; i++ {
		ms := []int{3, 5, 8}
		rows, err := experiment.NeighborCountSweep(w, 300, ms)
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range rows {
			b.ReportMetric(r.FastPrepareS2, "s-prepare-M"+string(rune('0'+ms[j])))
		}
	}
}

// BenchmarkAblationStartupThreshold sweeps Qs, the number of new-source
// segments required before playback starts.
func BenchmarkAblationStartupThreshold(b *testing.B) {
	w := benchWorkload()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.StartupThresholdSweep(w, 300, []int{25, 50})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FastPrepareS2, "s-prepare-Qs25")
		b.ReportMetric(rows[1].FastPrepareS2, "s-prepare-Qs50")
	}
}

// BenchmarkAblationSubstrate contrasts the shared-outbound substrate with
// the per-link model and the prefetch-disabled mesh.
func BenchmarkAblationSubstrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sub := range []struct {
			name  string
			apply func(*experiment.Workload)
		}{
			{"shared", func(*experiment.Workload) {}},
			{"perlink", func(w *experiment.Workload) { w.Base.PerLink = true }},
			{"noprefetch", func(w *experiment.Workload) { w.DisablePrefetch = true }},
		} {
			w := benchWorkload()
			sub.apply(&w)
			rows, err := w.RunSizeSweep()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rows[0].FastFinishS1, "s-finish-"+sub.name)
		}
	}
}

// BenchmarkScenario measures the scenario engine end to end: the
// serial-handoff-chain library scenario (three measured switches in one
// live mesh) at N=200 with one worker and, on a multi-core machine, with
// GOMAXPROCS workers. One op is a whole multi-window run; the windows'
// mean switch time is reported so the benchmark doubles as a metrics
// sanity check.
func BenchmarkScenario(b *testing.B) {
	counts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("serial-handoff-chain/workers=%d", workers), func(b *testing.B) {
			sc := scenario.SerialHandoffChain().Scaled(200)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg, err := sc.Config(sim.Fast)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Workers = workers
				s, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Windows) != 3 {
					b.Fatalf("windows = %d, want 3", len(res.Windows))
				}
				var prep float64
				for _, w := range res.Windows {
					prep += w.AvgPrepareS2()
				}
				b.ReportMetric(prep/3, "s-prepare-mean")
			}
		})
	}
}
