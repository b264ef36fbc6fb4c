package scenario

import (
	"errors"
	"fmt"
	"os"

	"gossipstream/internal/sim"
)

// The bundled scenario library: one named Scenario per dynamic the north
// star calls for. Each is a plain value — Scaled(n) shrinks any of them
// for tests and smoke runs — and each round-trips through the text
// format (cmd/scenario -dump prints the canonical file).

// PaperSingleSwitch is the paper's evaluation shape as a scenario: the
// session assembles over 25 ticks, warms up to 40, then one planned
// switch to a random successor, measured to the horizon — the run behind
// every figure of Section 5 (experiment.Paper() is this scenario scaled
// over sizes and replicas). TestNetNilMatchesGolden pins its values.
func PaperSingleSwitch() *Scenario {
	return &Scenario{
		Name:    "paper-single-switch",
		Desc:    "Section 5.1 baseline: warm-up, one planned handoff, one measured window",
		Nodes:   1000,
		M:       5,
		Seed:    7,
		Spread:  25,
		Horizon: 300,
		Events: []sim.Event{
			sim.SwitchAt(40, -1),
		},
	}
}

// SerialHandoffChain is the conference floor passing along four speakers:
// three serial measured handoffs in one live mesh (the multi-switch
// acceptance scenario — three switch-metrics blocks per run).
func SerialHandoffChain() *Scenario {
	return &Scenario{
		Name:    "serial-handoff-chain",
		Desc:    "conference: the floor passes 3 times through one live mesh",
		Nodes:   400,
		M:       5,
		Seed:    7,
		Spread:  25,
		Horizon: 120,
		Events: []sim.Event{
			sim.SwitchAt(40, 41),
			sim.SwitchAt(160, 97),
			sim.SwitchAt(280, 155),
		},
	}
}

// FlashCrowdJoin is the live-entertainment arrival burst: half the
// audience floods in at once with a catch-up backlog, a measurement
// window quantifies the disruption, then the source hands off under the
// crowd's load.
func FlashCrowdJoin() *Scenario {
	return &Scenario{
		Name:    "flash-crowd-join",
		Desc:    "batch arrival of half the audience, then a handoff under load",
		Nodes:   300,
		M:       5,
		Seed:    11,
		Spread:  20,
		Horizon: 200,
		Events: []sim.Event{
			sim.FlashCrowdAt(35, 150, 200),
			sim.MeasureAt(36, 40),
			sim.SwitchAt(90, -1),
		},
	}
}

// ChurnStorm is Section 5.4 pushed harder: baseline churn, then a storm
// at double the paper's rate breaking over the switch itself.
func ChurnStorm() *Scenario {
	return &Scenario{
		Name:       "churn-storm",
		Desc:       "baseline churn with a 10% storm breaking over the handoff",
		Nodes:      300,
		M:          5,
		Seed:       13,
		Spread:     25,
		Horizon:    200,
		ChurnLeave: 0.02,
		ChurnJoin:  0.02,
		Events: []sim.Event{
			sim.ChurnBurstAt(35, 30, 0.10, 0.10),
			sim.SwitchAt(50, -1),
		},
	}
}

// SourceCrash contrasts a planned handoff with an abrupt source failure
// in the same run: the second speaker crashes mid-stream, segments that
// never left their machine are lost, and the mesh must still converge on
// the successor's stream.
func SourceCrash() *Scenario {
	return &Scenario{
		Name:    "source-crash",
		Desc:    "planned handoff, then the second speaker crashes mid-stream",
		Nodes:   300,
		M:       5,
		Seed:    17,
		Spread:  25,
		Horizon: 150,
		Events: []sim.Event{
			sim.SwitchAt(40, -1),
			sim.CrashAt(110, -1),
		},
	}
}

// LossyUplink is the netmodel baseline scenario: the whole session runs
// over a lossy sub-tick transport (5% baseline, trace-derived delays
// plus jitter), and a 25% loss burst breaks over the handoff itself —
// the regime "Adaptive Streaming in P2P Live Video Systems" shows
// dominates perceived switch quality. Lost grants surface as
// loss-induced re-requests, and the window's mean delivery delay
// resolves the sub-second trace latencies.
func LossyUplink() *Scenario {
	return &Scenario{
		Name:        "lossy-uplink",
		Desc:        "5% baseline loss with a 25% burst breaking over the handoff",
		Nodes:       300,
		M:           5,
		Seed:        19,
		Spread:      25,
		Horizon:     220,
		Net:         true,
		NetLoss:     0.05,
		NetJitterMS: 150,
		Events: []sim.Event{
			sim.LossBurstAt(45, 40, 0.25),
			sim.SwitchAt(55, -1),
		},
	}
}

// TransatlanticSplit severs the overlay in two mid-session: the switch
// happens while part of the mesh is unreachable (only the source's side
// converges), the partition heals, and a second measurement window
// quantifies the far side's catch-up — the CliqueStream link-failure
// experiment as one scenario file. The split is latency-clustered
// (by=ping): the low-ping half of the trace forms one island, so the
// partition is genuinely geographic rather than a random bisection.
func TransatlanticSplit() *Scenario {
	return &Scenario{
		Name:        "transatlantic-split",
		Desc:        "a ping-clustered 50/50 partition over the handoff, healed after 35 ticks",
		Nodes:       300,
		M:           5,
		Seed:        23,
		Spread:      25,
		Horizon:     90,
		Net:         true,
		NetJitterMS: 1500, // multi-tick flights: the split severs messages mid-air
		Events: []sim.Event{
			sim.PartitionByPingAt(45, 0.5),
			sim.SwitchAt(50, -1),
			sim.HealAt(80),
			sim.MeasureAt(145, 60),
		},
	}
}

// LatencyStorm multiplies every link's propagation delay twentyfold
// around the handoff (trace pings of tens of milliseconds become
// seconds, i.e. multi-tick flights), then restores the baseline: the
// switch must complete while every grant spends periods in transit, and
// same-tick grants land in true delay order.
func LatencyStorm() *Scenario {
	return &Scenario{
		Name:        "latency-storm",
		Desc:        "propagation ×20 around the handoff: every grant flies for ticks",
		Nodes:       300,
		M:           5,
		Seed:        29,
		Spread:      25,
		Horizon:     250,
		Net:         true,
		NetJitterMS: 300,
		Events: []sim.Event{
			sim.LatencyShiftAt(40, 20),
			sim.SwitchAt(55, -1),
			sim.LatencyShiftAt(110, 1),
		},
	}
}

// Library returns the bundled scenarios, in documentation order.
func Library() []*Scenario {
	return []*Scenario{
		PaperSingleSwitch(),
		SerialHandoffChain(),
		FlashCrowdJoin(),
		ChurnStorm(),
		SourceCrash(),
		LossyUplink(),
		TransatlanticSplit(),
		LatencyStorm(),
	}
}

// Lookup returns the bundled scenario with the given name, or nil.
func Lookup(name string) *Scenario {
	for _, sc := range Library() {
		if sc.Name == name {
			return sc
		}
	}
	return nil
}

// Select resolves a CLI's scenario source: the scenario file at path file
// (-f), or the bundled scenario called name (-name); exactly one of the
// two is given.
func Select(file, name string) (*Scenario, error) {
	switch {
	case file != "" && name != "":
		return nil, errors.New("-f and -name are mutually exclusive")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return Parse(f)
	case name != "":
		if sc := Lookup(name); sc != nil {
			return sc, nil
		}
		return nil, fmt.Errorf("unknown scenario %q (see -list)", name)
	}
	return nil, errors.New("need -f or -name (or -list)")
}
