package sim

import (
	"fmt"
	"math"
	"sort"

	"gossipstream/internal/overlay"
)

// An Event is one tick-scheduled change of the simulated world: the
// currency of the scenario engine. A run executes a Script — an ordered
// timeline of events — through the `events` pipeline phase, which fires
// at the start of each tick, before arrivals. Events are serial (they
// mutate global structure: the timeline, the membership directory, node
// rates), so the engine's shard/merge determinism contract holds
// trivially; any randomness an event draws comes from a fresh per-event
// stream derived via engine.SeedFor with the rngEvents tag, never from a
// worker-dependent source.
//
// Construct events with the XxxAt helpers: the zero value of To pins
// node 0, so an Event literal that leaves To out does not mean "pick a
// random successor".
type Event struct {
	// Tick schedules the event: it fires at the start of that tick.
	Tick int
	// Kind selects the event type and which parameter fields apply.
	Kind EventKind

	// To pins the node promoted to source by an EvSwitchSource (node 0 is
	// a valid target); negative picks a uniformly random alive non-source
	// node. A pinned target that is dead, out of range, or already a
	// source falls back to the random pick. For an EvDemoteSource, To is
	// the ex-source to demote (negative: the most recently retired one).
	To overlay.NodeID
	// Failure makes the switch an abrupt source crash instead of a
	// planned handoff: the old source leaves the overlay (membership
	// repairs around it) and the stream is truncated at the last segment
	// id any other alive node holds — segments that never left the
	// crashed speaker's machine are lost.
	Failure bool
	// Horizon bounds the switch measurement window in ticks
	// (0 → Config.HorizonTicks).
	Horizon int

	// Ticks is the duration of an EvMeasureWindow or EvChurnBurst.
	Ticks int

	// Leave and Join are the per-tick churn fractions of an EvChurnBurst,
	// overriding Config.Churn for the burst's duration.
	Leave, Join float64

	// Count is the batch size of an EvFlashCrowd.
	Count int
	// Backlog bounds a flash-crowd joiner's catch-up backlog in segments:
	// joiners anchor at most Backlog segments behind the stream head.
	// 0 anchors at the current session's beginning (full catch-up, the
	// conference-latecomer semantics).
	Backlog int

	// Factor is the EvBandwidthShift rate multiplier, applied to every
	// non-source node's base profile (1.0 restores the baseline) — and
	// the EvLatencyShift propagation multiplier.
	Factor float64

	// Prob is the EvLossBurst per-message loss probability, overriding
	// the netmodel baseline for Ticks ticks.
	Prob float64

	// Frac is the EvPartition split fraction: the expected share of
	// nodes hashed onto the far side of the partition.
	Frac float64

	// ByPing makes an EvPartition split by round-trip ping instead of a
	// uniform hash: the low-ping cluster (the Frac-quantile of the trace
	// ping table) lands on one side — latency-clustered geographic
	// islands rather than a random bisection.
	ByPing bool
}

// EventKind enumerates the scenario event types.
type EventKind uint8

const (
	// EvSwitchSource ends the current source's session and promotes a new
	// source — a planned handoff, or an abrupt crash when Failure is set.
	// Opens a switch measurement window (one switch-metrics block per
	// event in Result.Windows).
	EvSwitchSource EventKind = iota + 1
	// EvMeasureWindow opens a plain measurement window for Ticks ticks:
	// playback continuity and communication bits, without switch
	// semantics. Used to quantify disruption from churn bursts or flash
	// crowds in scenarios that do not switch.
	EvMeasureWindow
	// EvChurnBurst overrides the baseline churn with Leave/Join fractions
	// for Ticks ticks (a churn storm).
	EvChurnBurst
	// EvFlashCrowd joins Count fresh nodes at once through the membership
	// protocol; unlike churn joiners (who adopt their neighbors' playback
	// position) they play the current stream from its beginning — the
	// catch-up backlog of a crowd arriving late to a live event.
	EvFlashCrowd
	// EvBandwidthShift scales every non-source node's rates by Factor.
	EvBandwidthShift
	// EvLatencyShift scales every subsequent message's propagation delay
	// by Factor (a latency storm; 1 restores the baseline). Messages
	// already in flight keep their original arrival tick. Requires
	// Config.Net.
	EvLatencyShift
	// EvLossBurst overrides the transport loss probability with Prob for
	// Ticks ticks (a lossy-uplink episode). Requires Config.Net.
	EvLossBurst
	// EvPartition splits the overlay in two: each node is assigned a
	// side (Frac the expected far-side share, seeded from a fresh
	// rngEvents stream; ByPing clusters the split by trace ping instead
	// of a uniform hash), and no traffic — buffer maps, requests or
	// data, including messages already in flight — crosses the boundary
	// until an EvHeal. Requires Config.Net.
	EvPartition
	// EvHeal ends the active partition. Requires Config.Net.
	EvHeal
	// EvDemoteSource turns an ex-source back into a listener: its base
	// inbound rate returns, it rejoins playback at its neighbors' current
	// position, and it becomes eligible to retake the floor at a later
	// SwitchSource (the round-trip handoff). To pins the ex-source to
	// demote; negative demotes the most recently retired one.
	EvDemoteSource
)

// NeedsNet reports whether the event kind requires the netmodel
// transport (Config.Net) to be enabled.
func (k EventKind) NeedsNet() bool {
	switch k {
	case EvLatencyShift, EvLossBurst, EvPartition, EvHeal:
		return true
	}
	return false
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvSwitchSource:
		return "switch"
	case EvMeasureWindow:
		return "measure"
	case EvChurnBurst:
		return "churnburst"
	case EvFlashCrowd:
		return "crowd"
	case EvBandwidthShift:
		return "bandwidth"
	case EvLatencyShift:
		return "latency"
	case EvLossBurst:
		return "lossburst"
	case EvPartition:
		return "partition"
	case EvHeal:
		return "heal"
	case EvDemoteSource:
		return "demote"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// SwitchAt schedules a planned source handoff (to < 0: random successor).
func SwitchAt(tick int, to overlay.NodeID) Event {
	return Event{Tick: tick, Kind: EvSwitchSource, To: to}
}

// CrashAt schedules an abrupt source failure with successor to
// (to < 0: random successor).
func CrashAt(tick int, to overlay.NodeID) Event {
	return Event{Tick: tick, Kind: EvSwitchSource, To: to, Failure: true}
}

// MeasureAt schedules a plain measurement window of the given length.
func MeasureAt(tick, ticks int) Event {
	return Event{Tick: tick, Kind: EvMeasureWindow, Ticks: ticks}
}

// ChurnBurstAt schedules a churn burst of the given length and fractions.
func ChurnBurstAt(tick, ticks int, leave, join float64) Event {
	return Event{Tick: tick, Kind: EvChurnBurst, Ticks: ticks, Leave: leave, Join: join}
}

// FlashCrowdAt schedules a batch arrival of count nodes; backlog bounds
// their catch-up backlog in segments (0: the whole current session).
func FlashCrowdAt(tick, count, backlog int) Event {
	return Event{Tick: tick, Kind: EvFlashCrowd, Count: count, Backlog: backlog}
}

// BandwidthShiftAt schedules a rate shift of every non-source node.
func BandwidthShiftAt(tick int, factor float64) Event {
	return Event{Tick: tick, Kind: EvBandwidthShift, Factor: factor}
}

// LatencyShiftAt schedules a propagation-delay shift (factor 1 restores
// the baseline). Requires Config.Net.
func LatencyShiftAt(tick int, factor float64) Event {
	return Event{Tick: tick, Kind: EvLatencyShift, Factor: factor}
}

// LossBurstAt schedules a loss burst: the transport loss probability
// becomes prob for the given number of ticks. Requires Config.Net.
func LossBurstAt(tick, ticks int, prob float64) Event {
	return Event{Tick: tick, Kind: EvLossBurst, Ticks: ticks, Prob: prob}
}

// PartitionAt schedules a network partition with the given expected
// far-side fraction. Requires Config.Net.
func PartitionAt(tick int, frac float64) Event {
	return Event{Tick: tick, Kind: EvPartition, Frac: frac}
}

// PartitionByPingAt schedules a latency-clustered network partition: the
// sides split by trace ping around the frac-quantile instead of a
// uniform hash. Requires Config.Net.
func PartitionByPingAt(tick int, frac float64) Event {
	return Event{Tick: tick, Kind: EvPartition, Frac: frac, ByPing: true}
}

// HealAt schedules the end of the active partition. Requires Config.Net.
func HealAt(tick int) Event {
	return Event{Tick: tick, Kind: EvHeal}
}

// DemoteAt schedules an ex-source's demotion back to listener (node < 0:
// the most recently retired source).
func DemoteAt(tick int, node overlay.NodeID) Event {
	return Event{Tick: tick, Kind: EvDemoteSource, To: node}
}

// Script is a declarative event timeline driving one run; every run has
// one (Config.Script is required).
type Script struct {
	// Events fire in Tick order; same-tick events fire in slice order.
	Events []Event
	// Duration caps the run length in ticks. 0 derives it from the
	// timeline — every window gets room to reach its horizon, and the run
	// ends early once all events have fired and every window has closed.
	// A positive Duration is honored exactly: the run executes that many
	// ticks (a window still open at the cap closes as Interrupted).
	Duration int
}

// Validate reports script errors.
func (sc *Script) Validate() error {
	if len(sc.Events) == 0 && sc.Duration <= 0 {
		return fmt.Errorf("sim: empty script needs a positive Duration")
	}
	if sc.Duration < 0 {
		return fmt.Errorf("sim: negative script Duration %d", sc.Duration)
	}
	for i, ev := range sc.Events {
		if ev.Tick < 0 {
			return fmt.Errorf("sim: event %d at negative tick %d", i, ev.Tick)
		}
		// NaN passes every range check below (it fails both sides of any
		// comparison), so screen the float parameters for finiteness first.
		for _, f := range [...]float64{ev.Leave, ev.Join, ev.Factor, ev.Prob, ev.Frac} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("sim: event %d: non-finite parameter %v", i, f)
			}
		}
		switch ev.Kind {
		case EvSwitchSource:
			if ev.Horizon < 0 {
				return fmt.Errorf("sim: event %d: negative horizon %d", i, ev.Horizon)
			}
		case EvMeasureWindow:
			if ev.Ticks <= 0 {
				return fmt.Errorf("sim: event %d: measure window needs positive Ticks", i)
			}
		case EvChurnBurst:
			if ev.Ticks <= 0 {
				return fmt.Errorf("sim: event %d: churn burst needs positive Ticks", i)
			}
			if ev.Leave < 0 || ev.Leave >= 1 || ev.Join < 0 || ev.Join >= 1 {
				return fmt.Errorf("sim: event %d: churn fractions (%v, %v) out of [0,1)", i, ev.Leave, ev.Join)
			}
		case EvFlashCrowd:
			if ev.Count <= 0 {
				return fmt.Errorf("sim: event %d: flash crowd needs positive Count", i)
			}
			if ev.Backlog < 0 {
				return fmt.Errorf("sim: event %d: negative backlog %d", i, ev.Backlog)
			}
		case EvBandwidthShift:
			if ev.Factor <= 0 {
				return fmt.Errorf("sim: event %d: bandwidth factor %v must be positive", i, ev.Factor)
			}
		case EvLatencyShift:
			if ev.Factor <= 0 {
				return fmt.Errorf("sim: event %d: latency factor %v must be positive", i, ev.Factor)
			}
		case EvLossBurst:
			if ev.Ticks <= 0 {
				return fmt.Errorf("sim: event %d: loss burst needs positive Ticks", i)
			}
			if ev.Prob < 0 || ev.Prob >= 1 {
				return fmt.Errorf("sim: event %d: loss probability %v out of [0,1)", i, ev.Prob)
			}
		case EvPartition:
			if ev.Frac <= 0 || ev.Frac >= 1 {
				return fmt.Errorf("sim: event %d: partition fraction %v out of (0,1)", i, ev.Frac)
			}
		case EvHeal, EvDemoteSource:
			// No parameters to validate.
		default:
			return fmt.Errorf("sim: event %d: unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// Schedule is how every backend runs the script: the events in firing
// order (a copy sorted by tick, stable, so same-tick events keep their
// authored order), the run length in ticks, and whether the run may end
// before it. A positive Duration is that length, honored exactly.
// Without one, every measurement window gets room to reach its horizon
// (defaultHorizon for a switch that sets none) and every burst room to
// run out, and the run ends early once every event has fired and every
// window has closed.
func (sc *Script) Schedule(defaultHorizon int) (events []Event, ticks int, earlyExit bool) {
	events = make([]Event, len(sc.Events))
	copy(events, sc.Events)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Tick < events[j].Tick })
	if sc.Duration > 0 {
		return events, sc.Duration, false
	}
	ticks = 1
	for _, ev := range sc.Events {
		after := 1
		switch ev.Kind {
		case EvSwitchSource:
			after = ev.Horizon
			if after <= 0 {
				after = defaultHorizon
			}
		case EvMeasureWindow, EvChurnBurst, EvLossBurst:
			after = ev.Ticks
		}
		ticks = max(ticks, ev.Tick+after)
	}
	return events, ticks, true
}
