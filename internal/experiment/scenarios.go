package experiment

import (
	"fmt"
	"strings"

	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
	"gossipstream/internal/stats"
)

// The scenario sweep: the experiment layer's fan-out generalized from
// overlay sizes to whole scenarios. Every (scenario, algorithm) trial is
// an independent deterministic run, so the sweep fans out on the engine
// pool exactly like Workload.Sweep, and each scenario contributes one
// comparison row per measurement window — a handoff chain is compared
// handoff by handoff.

// ScenarioSweep compares the two schedulers over a set of scenarios.
type ScenarioSweep struct {
	// Scenarios to run; typically scenario.Library() or a parsed file.
	Scenarios []*scenario.Scenario
	// Workers bounds the trial fan-out pool (0 = GOMAXPROCS); SimWorkers
	// sets the engine concurrency inside each run (results are identical
	// at any setting).
	Workers    int
	SimWorkers int
	// Fast and Normal build the compared schedulers (nil = the paper's
	// pair).
	Fast, Normal sim.AlgorithmFactory
}

// ScenarioOutcome pairs one scenario's runs under both schedulers.
type ScenarioOutcome struct {
	Scenario *scenario.Scenario
	Fast     *sim.Result
	Normal   *sim.Result
}

// Run executes every (scenario, algorithm) trial on the engine pool.
func (sw ScenarioSweep) Run() ([]ScenarioOutcome, error) {
	fast, normal := paperPair(sw.Fast, sw.Normal)
	trials := make([]trial, 0, len(sw.Scenarios)*2)
	for _, sc := range sw.Scenarios {
		trials = append(trials, trial{"scenario " + sc.Name, sc, fast}, trial{"scenario " + sc.Name, sc, normal})
	}
	results, err := runTrials(runSettings{workers: sw.Workers, simWorkers: sw.SimWorkers}, trials)
	if err != nil {
		return nil, err
	}
	out := make([]ScenarioOutcome, 0, len(sw.Scenarios))
	for i, sc := range sw.Scenarios {
		out = append(out, ScenarioOutcome{Scenario: sc, Fast: results[2*i], Normal: results[2*i+1]})
	}
	return out, nil
}

// FormatScenarioSweep renders the per-window comparison table: one row
// per measurement window of each scenario, with the fast-vs-normal
// switch-time reduction for switch windows. Scenarios running the
// netmodel transport additionally report the fast run's mean delivery
// delay, loss rate and loss-induced re-requests per window.
func FormatScenarioSweep(outcomes []ScenarioOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-14s %12s %12s %12s %9s %7s %7s\n",
		"scenario", "window", "fast prep(s)", "norm prep(s)", "reduction",
		"delay(s)", "loss", "rereq")
	for _, o := range outcomes {
		for wi, fw := range o.Fast.Windows {
			label := fmt.Sprintf("%d %s@t=%d", wi, fw.Kind, fw.Tick)
			net := fmt.Sprintf(" %9s %7s %7s", "-", "-", "-")
			if fw.NetDelivered+fw.NetLost > 0 {
				// Millisecond resolution for the sub-tick transport's
				// genuine sub-period delays.
				net = fmt.Sprintf(" %9.3f %6.1f%% %7d",
					fw.MeanDeliveryDelay(), fw.LossRate()*100, fw.NetReRequests)
			}
			if fw.Kind != "switch" {
				fmt.Fprintf(&b, "%-24s %-14s %12s %12s %12s%s\n",
					o.Scenario.Name, label, "-", "-", "-", net)
				continue
			}
			var np float64
			if wi < len(o.Normal.Windows) {
				np = o.Normal.Windows[wi].AvgPrepareS2()
			}
			fp := fw.AvgPrepareS2()
			fmt.Fprintf(&b, "%-24s %-14s %12.2f %12.2f %11.1f%%%s\n",
				o.Scenario.Name, label, fp, np, stats.ReductionRatio(np, fp)*100, net)
		}
	}
	return b.String()
}
