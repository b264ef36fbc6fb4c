// Command sweep regenerates the paper's figures: the ratio tracks
// (Figures 5/9), the finishing/preparing bars (Figures 6/10), the switch
// time and reduction ratio (Figures 7/11), and the communication overhead
// (Figures 8/12) — plus the ablation tables: priority-scoring and
// rate-split variants, the neighbor count M, the startup threshold Qs,
// the per-link capacity model and the prefetch-free mesh.
//
// Examples:
//
//	sweep                      # every figure, static + dynamic
//	sweep -fig 7               # only Figure 7
//	sweep -sizes 100,500,1000 -seeds 5
//	sweep -ablations           # the design-choice ablation tables
//	sweep -csv                 # machine-readable sweep output
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gossipstream/internal/experiment"
	"gossipstream/internal/scenario"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "regenerate a single figure (5-12); 0 = all")
		sizes     = flag.String("sizes", "", "comma-separated overlay sizes (default: the paper's 100..8000)")
		seeds     = flag.Int("seeds", 3, "replicas per size")
		ratioN    = flag.Int("ration", 1000, "overlay size for the ratio tracks (Figures 5/9)")
		workers   = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		simWork   = flag.Int("simworkers", 0, "engine workers inside each simulation (0 = one worker, inline; <0 = GOMAXPROCS); results are identical at any setting")
		csvOut    = flag.Bool("csv", false, "emit CSV instead of tables")
		ablations = flag.Bool("ablations", false, "run the design-choice ablations instead of the figures")
		abN       = flag.Int("abn", 500, "overlay size for ablations")
	)
	flag.Parse()

	w := experiment.Paper()
	w.SeedsPerSize = *seeds
	w.Workers = *workers
	w.SimWorkers = *simWork
	if *sizes != "" {
		w.Sizes = nil
		for _, tok := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fatal(err)
			}
			w.Sizes = append(w.Sizes, n)
		}
	}

	if *ablations {
		runAblations(w, *abN)
		return
	}

	wants := func(f int) bool { return *fig == 0 || *fig == f }

	for _, dynamic := range []bool{false, true} {
		wd, ratioFig, firstFig := w, 5, 6
		if dynamic {
			wd, ratioFig, firstFig = w.Dynamic(), 9, 10
		}
		if wants(ratioFig) {
			rt, err := wd.RunRatioTrack(*ratioN)
			if err != nil {
				fatal(err)
			}
			fmt.Println(rt.Render())
		}
		if wants(firstFig) || wants(firstFig+1) || wants(firstFig+2) {
			rows, err := wd.RunSizeSweep()
			if err != nil {
				fatal(err)
			}
			if *csvOut {
				fmt.Print(experiment.CSV(rows))
				continue
			}
			if wants(firstFig) {
				fmt.Println(experiment.FormatFinishPrepare(rows, dynamic))
			}
			if wants(firstFig + 1) {
				fmt.Println(experiment.FormatSwitchTime(rows, dynamic))
			}
			if wants(firstFig + 2) {
				fmt.Println(experiment.FormatOverhead(rows, dynamic))
			}
		}
	}
}

func runAblations(w experiment.Workload, n int) {
	for _, ab := range []struct {
		title    string
		variants []experiment.NamedFactory
	}{
		{"priority scoring variants", experiment.PriorityVariants()},
		{"optimal rate split", experiment.SplitVariants()},
	} {
		rows, err := experiment.Ablation{Workload: w, N: n, Baseline: "normal", Variants: ab.variants}.Run()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiment.FormatAblation(fmt.Sprintf("Ablation: %s (N=%d)", ab.title, n), rows))
	}

	// One-parameter sweeps: the neighbor count M and the startup threshold Qs.
	for _, p := range []struct {
		title, col string
		values     []int
		run        func(experiment.Workload, int, []int) ([]experiment.SizeRow, error)
	}{
		{"neighbor count M", "M", []int{3, 5, 8, 12}, experiment.NeighborCountSweep},
		{"startup threshold Qs", "Qs", []int{10, 25, 50, 100}, experiment.StartupThresholdSweep},
	} {
		rows, err := p.run(w, n, p.values)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Ablation: %s (N=%d)\n", p.title, n)
		fmt.Printf("%4s %12s %12s %12s\n", p.col, "fast prep(s)", "norm prep(s)", "reduction")
		for i, r := range rows {
			fmt.Printf("%4d %12.2f %12.2f %11.1f%%\n", p.values[i], r.FastPrepareS2, r.NormalPrepareS2, r.Reduction*100)
		}
		fmt.Println()
	}

	// Substrate ablations: per-link capacity model and no-prefetch mesh.
	noPrefetch := w
	noPrefetch.DisablePrefetch = true
	for _, sub := range []struct {
		name string
		ws   experiment.Workload
	}{
		{"per-link outbound", w.With(func(sc *scenario.Scenario) { sc.PerLink = true })},
		{"prefetch disabled", noPrefetch},
	} {
		ws := sub.ws
		ws.Sizes = []int{n}
		rows, err := ws.RunSizeSweep()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Substrate ablation: %s (N=%d)\n", sub.name, n)
		fmt.Println(experiment.FormatSwitchTime(rows, false))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
	os.Exit(1)
}
