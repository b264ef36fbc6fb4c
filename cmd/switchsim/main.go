// Command switchsim runs one gossip-streaming source-switch simulation and
// prints its metrics: the paper's Section 5 setup on a single synthesized
// overlay, with every knob exposed as a flag.
//
// Examples:
//
//	switchsim -n 1000 -algo fast
//	switchsim -n 1000 -algo both -ratios
//	switchsim -n 500 -algo both -churn -seed 3
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"gossipstream/internal/overlay"
	"gossipstream/internal/plot"
	"gossipstream/internal/sim"
	"gossipstream/internal/trace"
)

func main() {
	var (
		n       = flag.Int("n", 1000, "overlay size (nodes)")
		algo    = flag.String("algo", "both", "scheduler: fast, normal or both")
		seed    = flag.Int64("seed", 1, "run seed (topology and simulation)")
		m       = flag.Int("m", 5, "neighbors per node after augmentation (M)")
		warmup  = flag.Int("warmup", 40, "warm-up periods before the switch")
		spread  = flag.Int("spread", 25, "arrival stagger during warm-up (periods)")
		horizon = flag.Int("horizon", 300, "post-switch measurement horizon (periods)")
		qs      = flag.Int("qs", 50, "segments of S2 required to start playback (Qs)")
		churn   = flag.Bool("churn", false, "dynamic environment: 5% leave/join per period")
		perLink = flag.Bool("perlink", false, "per-link outbound capacity instead of shared")
		ratios  = flag.Bool("ratios", false, "track and draw the Figure 5/9 ratio curves")
		workers = flag.Int("workers", 0, "engine workers (0/1 = one worker, inline; <0 = GOMAXPROCS); results are identical at any setting")
		timings = flag.Bool("timings", false, "print the per-phase wall-clock and allocation breakdown")
	)
	flag.Parse()

	run := func(factory sim.AlgorithmFactory) (*sim.Result, error) {
		tr := trace.Synthesize("cli", *n, 1, *seed)
		g, err := tr.Graph()
		if err != nil {
			return nil, err
		}
		overlay.AugmentMinDegree(g, *m, rand.New(rand.NewSource(*seed^0xa06)))
		cfg := sim.Config{
			Graph:           g,
			Seed:            *seed,
			NewAlgorithm:    factory,
			WarmupTicks:     *warmup,
			JoinSpreadTicks: *spread,
			HorizonTicks:    *horizon,
			Qs:              *qs,
			FirstSource:     -1,
			NewSource:       -1,
			SharedOutbound:  !*perLink,
			TrackRatios:     *ratios,
			Workers:         *workers,
		}
		if *churn {
			cfg.Churn = &sim.ChurnConfig{LeaveFraction: 0.05, JoinFraction: 0.05}
		}
		s, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		s.CapturePhaseMem(*timings)
		res, err := s.Run()
		if err != nil {
			return nil, err
		}
		if *timings {
			fmt.Printf("  phase timings (%d workers):\n", s.Workers())
			for _, t := range s.PhaseTimings() {
				fmt.Printf("    %-10s %12v %14d B %10d allocs\n", t.Name, t.Total, t.Bytes, t.Allocs)
			}
		}
		return res, nil
	}

	factories := map[string]sim.AlgorithmFactory{}
	switch *algo {
	case "fast":
		factories["fast"] = sim.Fast
	case "normal":
		factories["normal"] = sim.Normal
	case "both":
		factories["fast"] = sim.Fast
		factories["normal"] = sim.Normal
	default:
		fmt.Fprintf(os.Stderr, "switchsim: unknown -algo %q (want fast, normal or both)\n", *algo)
		os.Exit(2)
	}

	results := map[string]*sim.Result{}
	for _, name := range []string{"normal", "fast"} {
		factory, ok := factories[name]
		if !ok {
			continue
		}
		res, err := run(factory)
		if err != nil {
			fmt.Fprintf(os.Stderr, "switchsim: %v\n", err)
			os.Exit(1)
		}
		results[name] = res
		fmt.Printf("%s:\n", name)
		fmt.Printf("  nodes=%d cohort=%d measured=%ds hitHorizon=%v\n",
			res.Nodes, res.Cohort, res.MeasuredTicks, res.HitHorizon)
		fmt.Printf("  avg finish S1  = %6.2f s   (max %6.2f s, unfinished %d)\n",
			res.AvgFinishS1(), res.MaxFinishS1(), res.UnfinishedS1)
		fmt.Printf("  avg prepare S2 = %6.2f s   (max %6.2f s, unprepared %d)\n",
			res.AvgPrepareS2(), res.MaxPrepareS2(), res.UnpreparedS2)
		fmt.Printf("  avg start S2   = %6.2f s\n", res.AvgStartS2())
		fmt.Printf("  overhead       = %6.4f    (control %d bits / data %d bits)\n",
			res.Overhead(), res.ControlBits, res.DataBits)
		fmt.Printf("  continuity     = %6.4f    (%d segments played, %d slots stalled)\n",
			res.Continuity(), res.PlayedSegments, res.StalledSlots)
		if *ratios && res.UndeliveredS1 != nil {
			res.UndeliveredS1.Label = name + ": undelivered S1"
			res.DeliveredS2.Label = name + ": delivered S2"
			fmt.Println(plot.Line("ratio track", 64, 12, res.UndeliveredS1, res.DeliveredS2))
		}
	}

	if fast, ok := results["fast"]; ok {
		if normal, ok := results["normal"]; ok {
			red := (normal.AvgPrepareS2() - fast.AvgPrepareS2()) / normal.AvgPrepareS2()
			fmt.Printf("\nswitch-time reduction (fast vs normal): %.1f%%\n", red*100)
		}
	}
}
