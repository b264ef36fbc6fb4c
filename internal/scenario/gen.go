package scenario

import (
	"fmt"
	"math/rand"

	"gossipstream/internal/overlay"
	"gossipstream/internal/sim"
)

// This file is the seeded scenario generator: from a single seed it
// synthesizes a valid scenario spanning the full event alphabet —
// planned and failure switches, demotions, churn bursts, flash crowds,
// bandwidth and latency shifts, loss bursts, partitions (uniform and
// latency-clustered), heals, and overlapping measurement windows, with
// and without the netmodel transport. Every output at the default size
// satisfies Validate, round-trips through Write/Parse, and — the
// property the fuzz driver leans on — runs without a run error at any
// worker count, so the determinism contract and the run invariants can
// be checked on an unbounded family of timelines instead of the
// hand-written library.
//
// The generation is biased where uniform sampling would produce
// scenarios that cannot run or measure anything:
//
//   - the first event is always a planned switch, so every scenario has
//     at least one measurement window;
//   - demotions only target the implicit last-retired speaker, only
//     after a planned switch (a failure kills the retiree), and only in
//     churn-free scenarios (churn could kill the retiree first);
//   - churn rates are bounded and joins accompany leaves, keeping the
//     population near its starting size so switches always find a
//     successor;
//   - partitions never nest, and a heal is strongly preferred while one
//     is active (a bare heal is still emitted occasionally — it is a
//     valid no-op).

// GenOptions parameterizes Generate. The zero value of every field
// means "derive it from the seed".
type GenOptions struct {
	// Seed drives every generation decision; equal options generate
	// byte-identical scenarios.
	Seed int64
	// Nodes overrides the overlay size when positive (default 60–160,
	// seed-drawn).
	Nodes int
	// Events overrides the timeline length when positive (default 4–12,
	// seed-drawn).
	Events int
}

// Generate synthesizes a scenario from the options. At the default size
// every seed's result passes Validate (the family tests compile each
// one); an explicit Nodes can be too small for the drawn timeline or
// neighbor target, so a caller passing one checks Validate.
func Generate(opt GenOptions) *Scenario {
	rng := rand.New(rand.NewSource(opt.Seed))
	name := fmt.Sprintf("gen-%d", opt.Seed)
	if opt.Seed < 0 {
		name = fmt.Sprintf("gen-n%d", uint64(-opt.Seed))
	}
	nodes := opt.Nodes
	if nodes <= 0 {
		nodes = 60 + rng.Intn(101)
	}
	sc := &Scenario{
		Name:  name,
		Desc:  fmt.Sprintf("seeded fuzz scenario %d", opt.Seed),
		Nodes: nodes,
		Seed:  rng.Int63n(1 << 31),
		// Always cap the per-window horizon: the generated timelines are
		// about event interleaving, not long-tail completion, and the cap
		// keeps the auto-derived duration (and the fuzz driver) fast.
		Horizon: 40 + rng.Intn(81),
	}
	if rng.Intn(3) == 0 {
		sc.M = 4 + rng.Intn(5)
	}
	if rng.Intn(4) == 0 {
		sc.Spread = 5 + rng.Intn(16)
	}
	if rng.Intn(4) == 0 {
		sc.PerLink = true
	}
	if rng.Intn(4) == 0 {
		sc.Qs = 20 + rng.Intn(41)
	}
	if rng.Intn(5) == 0 {
		sc.First = overlay.NodeID(1 + rng.Intn(nodes-1))
	}

	withChurn := rng.Intn(2) == 0
	if withChurn && rng.Intn(2) == 0 {
		f := 0.005 + 0.015*rng.Float64()
		sc.ChurnLeave, sc.ChurnJoin = f, f
	}
	if rng.Intn(4) != 0 {
		sc.Net = true
		if rng.Intn(3) == 0 {
			sc.NetLoss = 0.01 + 0.09*rng.Float64()
		}
		if rng.Intn(3) == 0 {
			sc.NetJitterMS = 50 + 250*rng.Float64()
		}
		if rng.Intn(3) == 0 {
			sc.NetPingMS = 40 + rng.Intn(121)
		}
	}

	count := opt.Events
	if count <= 0 {
		count = 4 + rng.Intn(9)
	}
	tick := 15 + rng.Intn(26)
	demotable := false       // a planned switch retired a live ex-speaker
	partitionActive := false // an unhealed partition is in force
	genSwitch := func() {
		ev := sim.SwitchAt(tick, -1)
		if rng.Intn(4) == 0 {
			// A pinned successor; the simulator falls back to the random
			// pick when the pin is ineligible, so any id in range is safe.
			ev.To = overlay.NodeID(rng.Intn(nodes))
		}
		if rng.Intn(4) == 0 {
			ev.Horizon = 30 + rng.Intn(51)
		}
		if rng.Intn(3) == 0 {
			ev.Failure = true
			demotable = false // the crash kills the would-be retiree
		} else {
			demotable = true
		}
		sc.Events = append(sc.Events, ev)
	}
	genSwitch() // bias: open with a window, every scenario measures something
	for len(sc.Events) < count {
		tick += 3 + rng.Intn(30)
		// The verb menu, rebuilt each step: entries repeat to weight the
		// draw, and availability depends on the scenario's state.
		type verb int
		const (
			vSwitch verb = iota
			vMeasure
			vCrowd
			vBandwidth
			vChurnBurst
			vDemote
			vLatency
			vLossBurst
			vPartition
			vHeal
		)
		menu := []verb{vSwitch, vSwitch, vMeasure, vMeasure, vCrowd, vBandwidth}
		if withChurn {
			menu = append(menu, vChurnBurst, vChurnBurst)
		} else if demotable {
			menu = append(menu, vDemote, vDemote)
		}
		if sc.Net {
			menu = append(menu, vLatency, vLatency, vLossBurst, vLossBurst)
			if partitionActive {
				menu = append(menu, vHeal, vHeal, vHeal, vHeal)
			} else {
				menu = append(menu, vPartition, vPartition, vHeal)
			}
		}
		switch menu[rng.Intn(len(menu))] {
		case vSwitch:
			genSwitch()
		case vMeasure:
			sc.Events = append(sc.Events, sim.MeasureAt(tick, 10+rng.Intn(31)))
		case vCrowd:
			backlog := 0
			if rng.Intn(2) == 0 {
				backlog = 50 + rng.Intn(251)
			}
			sc.Events = append(sc.Events, sim.FlashCrowdAt(tick, 5+rng.Intn(max(nodes/4, 6)), backlog))
		case vBandwidth:
			sc.Events = append(sc.Events, sim.BandwidthShiftAt(tick, 0.5+rng.Float64()))
		case vChurnBurst:
			leave := 0.01 + 0.03*rng.Float64()
			join := leave + 0.03*rng.Float64()
			sc.Events = append(sc.Events, sim.ChurnBurstAt(tick, 5+rng.Intn(11), leave, join))
		case vDemote:
			sc.Events = append(sc.Events, sim.DemoteAt(tick, -1))
			demotable = false
		case vLatency:
			factor := 0.5 + 1.5*rng.Float64() // mild drift
			switch rng.Intn(3) {
			case 0:
				factor = 4 + 16*rng.Float64() // latency storm
			case 1:
				factor = 1 // restore
			}
			sc.Events = append(sc.Events, sim.LatencyShiftAt(tick, factor))
		case vLossBurst:
			sc.Events = append(sc.Events, sim.LossBurstAt(tick, 5+rng.Intn(26), 0.05+0.35*rng.Float64()))
		case vPartition:
			frac := 0.3 + 0.4*rng.Float64()
			if rng.Intn(2) == 0 {
				sc.Events = append(sc.Events, sim.PartitionByPingAt(tick, frac))
			} else {
				sc.Events = append(sc.Events, sim.PartitionAt(tick, frac))
			}
			partitionActive = true
		case vHeal:
			sc.Events = append(sc.Events, sim.HealAt(tick))
			partitionActive = false
		}
	}
	if rng.Intn(4) == 0 {
		sc.Duration = sc.Events[len(sc.Events)-1].Tick + 40 + rng.Intn(61)
	}
	return sc
}
