// Quickstart: the smallest end-to-end use of gossipstream.
//
// It builds a 300-node gossip streaming overlay, runs one source switch
// under the paper's fast switch algorithm and under the normal baseline,
// and prints the headline comparison — the 60-second version of the
// paper's evaluation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gossipstream/internal/scenario"
	"gossipstream/internal/sim"
)

func main() {
	// 1. The paper's evaluation shape as a scenario: a Gnutella-like
	//    overlay trace augmented so every node holds M=5 neighbors (the
	//    Section 5.1 preparation), members assembling over the first 25
	//    periods, and one planned switch at period 40, measured in its
	//    own window. Everything else defaults to the paper's setup: τ=1 s,
	//    p=10, Q=10, Qs=50, B=600, heterogeneous inbound with mean 15,
	//    shared outbound capacity.
	sc := &scenario.Scenario{
		Name:   "quickstart",
		Desc:   "one planned source switch on a 300-node overlay",
		Nodes:  300,
		M:      5,
		Spread: 25,
		Events: []sim.Event{sim.SwitchAt(40, -1)},
	}
	fmt.Printf("scenario %s: %d nodes, M=%d, switch at period 40\n\n", sc.Name, sc.Nodes, sc.M)

	// 2. Simulated source switches per algorithm, averaged over a few
	//    seeds (a single switch is noisy: the randomly chosen new source's
	//    position in the overlay matters). The seed drives the topology
	//    and the run, so both algorithms see the same overlay per seed.
	run := func(factory sim.AlgorithmFactory, seed int64) *sim.SwitchMetrics {
		sc.Seed = seed
		res, err := sc.Run(factory)
		if err != nil {
			log.Fatal(err)
		}
		return res.FirstSwitch()
	}

	const seeds = 5
	var fastFin, fastPrep, normFin, normPrep, fastOv, normOv float64
	for seed := int64(0); seed < seeds; seed++ {
		fast := run(sim.Fast, seed)
		normal := run(sim.Normal, seed)
		fastFin += fast.AvgFinishS1() / seeds
		fastPrep += fast.AvgPrepareS2() / seeds
		fastOv += fast.Overhead() / seeds
		normFin += normal.AvgFinishS1() / seeds
		normPrep += normal.AvgPrepareS2() / seeds
		normOv += normal.Overhead() / seeds
	}

	// 3. The paper's headline metrics.
	fmt.Printf("averages over %d switches:\n", seeds)
	fmt.Println("                       fast     normal")
	fmt.Printf("avg finish S1 (s)   %7.2f  %9.2f\n", fastFin, normFin)
	fmt.Printf("avg prepare S2 (s)  %7.2f  %9.2f   <- the switch time\n", fastPrep, normPrep)
	fmt.Printf("overhead            %7.4f  %9.4f\n", fastOv, normOv)
	fmt.Printf("\nswitch-time reduction: %.1f%%\n", (normPrep-fastPrep)/normPrep*100)
}
