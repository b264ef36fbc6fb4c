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
	"math/rand"

	"gossipstream/internal/overlay"
	"gossipstream/internal/sim"
	"gossipstream/internal/trace"
)

func main() {
	// 1. A Gnutella-like overlay trace, augmented so every node holds
	//    M=5 neighbors (the paper's Section 5.1 preparation).
	tr := trace.Synthesize("quickstart", 300, 1, 42)
	g, err := tr.Graph()
	if err != nil {
		log.Fatal(err)
	}
	overlay.AugmentMinDegree(g, 5, rand.New(rand.NewSource(42)))
	fmt.Printf("overlay: %d nodes, %d edges, min degree %d\n\n", g.N(), g.M(), g.MinDegree())

	// 2. Simulated source switches per algorithm, averaged over a few run
	//    seeds (a single switch is noisy: the randomly chosen new source's
	//    position in the overlay matters).
	run := func(factory sim.AlgorithmFactory, seed int64) *sim.SwitchMetrics {
		s, err := sim.New(sim.Config{
			Graph:        g.Clone(), // churnless here, but Clone keeps runs independent
			Seed:         seed,
			NewAlgorithm: factory,
			FirstSource:  -1,
			// Members assemble over the first 25 periods; the one planned
			// switch fires at period 40 and is measured in its own window.
			JoinSpreadTicks: 25,
			Script:          &sim.Script{Events: []sim.Event{sim.SwitchAt(40, -1)}},
			// Everything else defaults to the paper's setup: τ=1 s, p=10,
			// Q=10, Qs=50, B=600, heterogeneous inbound with mean 15.
			SharedOutbound: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Run()
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
