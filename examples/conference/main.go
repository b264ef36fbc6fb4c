// Conference: the paper's motivating scenario — a video conference where
// "every member can become the streaming source but there is usually only
// one source (that is the speaker) at a time" (Section 1).
//
// Five speakers take the floor in turn — a single scenario with four
// serial hand-off events in ONE live mesh (the scenario engine's whole
// point: before it, each hand-off had to be faked as a separate
// simulation). Every hand-off is a measured source switch with its own
// metrics block; the example compares the fast and normal algorithms
// hand-off by hand-off, plus the parallel-source rate split (the paper's
// future-work extension) for a panel segment where two speakers overlap.
//
//	go run ./examples/conference
package main

import (
	"fmt"
	"log"

	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
	"gossipstream/internal/stats"
)

const members = 400

func main() {
	fmt.Printf("conference with %d members, 5 speakers in turn\n\n", members)

	sc := &scenario.Scenario{
		Name:    "conference",
		Desc:    "five speakers take the floor in turn",
		Nodes:   members,
		M:       5,
		Seed:    3,
		First:   3, // speaker 3 opens the conference
		Spread:  25,
		Horizon: 110,
		Events: []sim.Event{
			// The floor then passes four times.
			sim.SwitchAt(40, 41),
			sim.SwitchAt(150, 97),
			sim.SwitchAt(260, 155),
			sim.SwitchAt(370, 289),
		},
	}
	fast := run(sc, sim.Fast)
	normal := run(sc, sim.Normal)

	fmt.Println("hand-off            fast(s)  normal(s)  reduction")
	var fastTotal, normalTotal float64
	for i, fw := range fast.Windows {
		nw := normal.Windows[i]
		fp, np := fw.AvgPrepareS2(), nw.AvgPrepareS2()
		fmt.Printf("speaker %3d -> %3d  %7.2f  %9.2f  %8.1f%%\n",
			fw.OldSource, fw.NewSource, fp, np, stats.ReductionRatio(np, fp)*100)
		fastTotal += fp
		normalTotal += np
	}
	fmt.Printf("total switching     %7.2f  %9.2f  %8.1f%%\n\n",
		fastTotal, normalTotal, stats.ReductionRatio(normalTotal, fastTotal)*100)

	// Panel segment: two speakers live at once. The serial switch model no
	// longer applies; the parallel extension (parallel.go) splits a
	// listener's inbound across both live streams by equalizing deadline
	// lateness.
	fmt.Println("panel segment: two live speakers, one listener with I=15 seg/s")
	demands := []ParallelDemand{
		{Backlog: 80, Deadline: 6, Supply: 9},  // main camera, behind
		{Backlog: 30, Deadline: 8, Supply: 12}, // slides stream
	}
	rates, err := ParallelSplit(15, demands)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range rates {
		fmt.Printf("  stream %d: backlog=%3.0f due in %2.0fs supply<=%2.0f -> allocated %.2f seg/s\n",
			i+1, demands[i].Backlog, demands[i].Deadline, demands[i].Supply, r)
	}
	fmt.Printf("  worst lateness: %.2f s\n", ParallelLateness(rates, demands))
}

// run executes the conference scenario under one scheduler.
func run(sc *scenario.Scenario, factory sim.AlgorithmFactory) *sim.Result {
	res, err := sc.Run(factory)
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Windows) != len(sc.Events) {
		log.Fatalf("expected %d hand-off windows, got %d", len(sc.Events), len(res.Windows))
	}
	return res
}
