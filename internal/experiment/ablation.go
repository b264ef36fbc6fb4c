package experiment

import (
	"fmt"
	"slices"
	"strings"

	"gossipstream/internal/core"
	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
	"gossipstream/internal/stats"
)

// AblationRow is one variant's aggregate outcome at a fixed network size.
type AblationRow struct {
	Name      string
	PrepareS2 float64 // mean preparing time of S2 (the switch time), seconds
	FinishS1  float64
	Reduction float64 // vs. the row named "normal" in the same table
}

// Ablation compares scheduler or substrate variants on the same
// topologies. Variants map a display name to an algorithm factory; the
// baseline name anchors the reduction column.
type Ablation struct {
	Workload Workload
	N        int
	Baseline string
	Variants []NamedFactory
}

// NamedFactory pairs an algorithm factory with its display name.
type NamedFactory struct {
	Name    string
	Factory sim.AlgorithmFactory
}

// Run executes every variant over the workload's replicas at size N,
// fanning the (variant, replica) trials out over the engine pool with
// per-trial seeds.
func (a Ablation) Run() ([]AblationRow, error) {
	if !slices.ContainsFunc(a.Variants, func(v NamedFactory) bool { return v.Name == a.Baseline }) {
		return nil, fmt.Errorf("experiment: ablation baseline %q names no variant", a.Baseline)
	}
	w := a.Workload
	if err := w.check(); err != nil {
		return nil, err
	}
	reps := w.SeedsPerSize
	trials := make([]trial, 0, len(a.Variants)*reps)
	for _, v := range a.Variants {
		for r := 0; r < reps; r++ {
			label := fmt.Sprintf("variant %s: size %d replica %d", v.Name, a.N, r)
			trials = append(trials, trial{label, w.cell(a.N, r), v.Factory})
		}
	}
	results, err := runTrials(w.settings(), trials)
	if err != nil {
		return nil, err
	}

	rows := make([]AblationRow, 0, len(a.Variants))
	var baseline float64
	for vi, v := range a.Variants {
		var preps, fins []float64
		for _, res := range results[vi*reps : (vi+1)*reps] {
			sw := res.FirstSwitch()
			preps = append(preps, sw.AvgPrepareS2())
			fins = append(fins, sw.AvgFinishS1())
		}
		row := AblationRow{
			Name:      v.Name,
			PrepareS2: stats.Mean(preps),
			FinishS1:  stats.Mean(fins),
		}
		if v.Name == a.Baseline {
			baseline = row.PrepareS2
		}
		rows = append(rows, row)
	}
	for i := range rows {
		rows[i].Reduction = stats.ReductionRatio(baseline, rows[i].PrepareS2)
	}
	return rows, nil
}

// FormatAblation renders an ablation table.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s %12s %12s %12s\n", "variant", "prepareS2(s)", "finishS1(s)", "vs baseline")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %12.2f %12.2f %11.1f%%\n", r.Name, r.PrepareS2, r.FinishS1, r.Reduction*100)
	}
	return b.String()
}

// PriorityVariants builds the eq. (8)/(9) ablation set: the paper's
// scoring against the traditional 1/n rarity and the single-term
// priorities.
func PriorityVariants() []NamedFactory {
	mk := func(opt core.ScoreOptions) sim.AlgorithmFactory {
		return func() core.Algorithm { return &core.FastSwitch{Options: opt} }
	}
	return []NamedFactory{
		{Name: "normal", Factory: sim.Normal},
		{Name: "fast (paper: eq.8 + max)", Factory: sim.Fast},
		{Name: "fast, rarity=1/n", Factory: mk(core.ScoreOptions{Rarity: core.RarityTraditional})},
		{Name: "fast, urgency only", Factory: mk(core.ScoreOptions{Priority: core.PriorityUrgencyOnly})},
		{Name: "fast, rarity only", Factory: mk(core.ScoreOptions{Priority: core.PriorityRarityOnly})},
	}
}

// SplitVariants isolates the optimal rate split: the full algorithm
// against a variant that keeps the scoring but drops the r1/r2 split.
func SplitVariants() []NamedFactory {
	return []NamedFactory{
		{Name: "normal", Factory: sim.Normal},
		{Name: "fast (with rate split)", Factory: sim.Fast},
		{Name: "fast, split disabled", Factory: func() core.Algorithm {
			return &core.FastSwitch{DisableSplit: true}
		}},
	}
}

// sweepParam reruns the paired comparison at size n once per value, set
// applying the value to a copy of the base scenario; one row per value.
func sweepParam(w Workload, n int, values []int, set func(*scenario.Scenario, int)) ([]SizeRow, error) {
	w.Sizes = []int{n}
	rows := make([]SizeRow, 0, len(values))
	for _, v := range values {
		agg, err := w.With(func(sc *scenario.Scenario) { set(sc, v) }).RunSizeSweep()
		if err != nil {
			return nil, err
		}
		rows = append(rows, agg[0])
	}
	return rows, nil
}

// NeighborCountSweep reruns the paired comparison at several M values —
// the paper's claim that "M=5 is usually a good practical choice".
func NeighborCountSweep(w Workload, n int, ms []int) ([]SizeRow, error) {
	return sweepParam(w, n, ms, func(sc *scenario.Scenario, m int) { sc.M = m })
}

// StartupThresholdSweep reruns the paired comparison at several Qs values.
func StartupThresholdSweep(w Workload, n int, qss []int) ([]SizeRow, error) {
	return sweepParam(w, n, qss, func(sc *scenario.Scenario, qs int) { sc.Qs = qs })
}
