// Lecture: the paper's distance-education scenario. A lecturer streams to
// a large class whose members trickle in late (and must catch up on what
// they missed); afterwards a teaching assistant takes over for the Q&A —
// the source switch whose startup delay the fast algorithm minimizes.
//
// The example shows how the hand-off behaves as the class grows, and how
// the stragglers (the last nodes to prepare) fare — the tail the paper
// plots in Figure 5.
//
//	go run ./examples/lecture
package main

import (
	"fmt"
	"log"

	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
	"gossipstream/internal/stats"
)

func main() {
	fmt.Println("lecture -> Q&A hand-off at growing class sizes")
	fmt.Println("class   fast avg/p95 (s)    normal avg/p95 (s)   reduction")
	for _, n := range []int{100, 300, 600} {
		fast := classRun(n, sim.Fast)
		normal := classRun(n, sim.Normal)
		fp := stats.Percentile(fast.PrepareS2Times, 95)
		np := stats.Percentile(normal.PrepareS2Times, 95)
		red := (normal.AvgPrepareS2() - fast.AvgPrepareS2()) / normal.AvgPrepareS2()
		fmt.Printf("%5d   %6.2f / %6.2f     %6.2f / %6.2f     %6.1f%%\n",
			n, fast.AvgPrepareS2(), fp, normal.AvgPrepareS2(), np, red*100)
	}

	fmt.Println("\nstraggler anatomy at N=300 (fast algorithm):")
	res := classRun(300, sim.Fast)
	s := stats.Summarize(res.PrepareS2Times)
	fmt.Printf("  prepare times: %v\n", s)
	fmt.Printf("  the Q&A could start for the median student %.1f s after the lecturer stopped;\n", s.Median)
	fmt.Printf("  the slowest straggler needed %.1f s.\n", s.Max)
}

// classRun simulates one lecture and returns the hand-off's metrics.
func classRun(n int, factory sim.AlgorithmFactory) *sim.SwitchMetrics {
	sc := &scenario.Scenario{
		Name:  "lecture",
		Desc:  "a lecture hands off to the Q&A",
		Nodes: n,
		M:     5,
		Seed:  int64(n),
		// Students arrive over the first 30 periods and play the lecture
		// from its beginning — the catch-up backlog that makes the
		// hand-off, 45 periods in, hard.
		Spread: 30,
		Events: []sim.Event{sim.SwitchAt(45, -1)},
	}
	res, err := sc.Run(factory)
	if err != nil {
		log.Fatal(err)
	}
	return res.FirstSwitch()
}
