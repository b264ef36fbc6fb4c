package sim

import (
	"cmp"
	"slices"
	"sort"

	"gossipstream/internal/obs"
	"gossipstream/internal/overlay"
)

// This file is the measurement window both backends drive. The paper
// measures a switch with four numbers — S1 finishing time, S2 preparing
// time, communication overhead and playback continuity — each over the
// cohort present at the switch. Window holds that whole state machine:
// the frozen cohort, each member's stamps and continuity counts, the
// close rule, the conversion of stamps into samples, the window trace
// events, and the cross-shard merge. A driver supplies only what differs
// between backends: who is in the cohort, where each member's playback
// step and the window's bit and transport counts come from. The
// simulator feeds it from its playback phase and phase-level counters
// (phase_world.go, phase_plan.go, phase_serve.go, phase_net.go), the
// live runner (internal/runtime) from its peers' period reports.

// unset marks a stamp that has not happened yet.
const unset = -1

// WindowHeader is what a driver knows when a window opens.
type WindowHeader struct {
	Index   int // position in Result.Windows
	Tick    int // the opening period: the switch instant of a switch window
	Nodes   int // alive population
	Horizon int // the most periods the window may run

	// Switch windows only: the timeline index of the session switched to,
	// and the handoff.
	Switch               bool
	Session              int
	OldSource, NewSource overlay.NodeID
	Failure              bool
}

// member is one cohort member's row of the window's ledger.
type member struct {
	id overlay.NodeID
	// gone marks a member that left mid-window: it counts neither as
	// complete nor as unfinished.
	gone bool
	// Period stamps, unset until they happen: finished playing S1,
	// gathered S2's first Qs segments, started playing S2.
	finishS1, prepareS2, startS2 int
	// Continuity: segments played, playback slots lost to a hole.
	played, stalled int
}

// Window is a backend's measurement window, at most one open at a time.
// Step writes only its member's ledger row, so a sharded phase may call
// it concurrently for distinct members; every other method is serial.
type Window struct {
	tau    float64
	trace  *obs.Trace
	closed *obs.Counter

	m                 *SwitchMetrics // the open window's block; nil when none is open
	isSwitch          bool
	session           int
	openTick, horizon int
	// members is the ledger in ascending id order. It survives Close
	// until the next Open reuses it.
	members []member

	controlBits, dataBits                int64
	netDelivered, netLost, netReRequests int64
	// netDelayMS is summed in milliseconds and converted at Close: the
	// summation order is part of the simulator's determinism contract.
	netDelayMS float64
}

// NewWindow returns a closed window for a run with period tau. trace
// receives the window-open/window-close events and closed counts closed
// windows; either may be nil.
func NewWindow(tau float64, trace *obs.Trace, closed *obs.Counter) Window {
	return Window{tau: tau, trace: trace, closed: closed}
}

// Active reports whether a window is open.
func (w *Window) Active() bool { return w.m != nil }

// Metrics returns the open window's block, nil when none is open.
func (w *Window) Metrics() *SwitchMetrics { return w.m }

// Open starts a window over cohort (in any order) and resets every
// counter. The previous window must be closed.
func (w *Window) Open(h WindowHeader, cohort []overlay.NodeID) {
	m := &SwitchMetrics{Window: h.Index, Kind: "measure", Tick: h.Tick, Nodes: h.Nodes, Cohort: len(cohort)}
	if h.Switch {
		m.Kind = "switch"
		m.OldSource, m.NewSource, m.Failure = h.OldSource, h.NewSource, h.Failure
	}
	w.m, w.isSwitch, w.session = m, h.Switch, h.Session
	w.openTick, w.horizon = h.Tick, h.Horizon
	w.members = w.members[:0]
	for _, id := range cohort {
		w.members = append(w.members, member{id: id, finishS1: unset, prepareS2: unset, startS2: unset})
	}
	slices.SortFunc(w.members, func(a, b member) int { return cmp.Compare(a.id, b.id) })
	w.controlBits, w.dataBits = 0, 0
	w.netDelivered, w.netLost, w.netReRequests, w.netDelayMS = 0, 0, 0, 0
	w.trace.Emit(obs.TraceEvent{T: obs.EvWindowOpen, Tick: h.Tick,
		Window: obs.P(m.Window), Kind: m.Kind, Cohort: m.Cohort})
}

// Slot returns id's row in the open window's ledger, -1 when id is not a
// cohort member or no window is open.
func (w *Window) Slot(id overlay.NodeID) int {
	if w.m == nil {
		return -1
	}
	// The search reads only the id field: other rows may be mid-Step.
	k := sort.Search(len(w.members), func(i int) bool { return w.members[i].id >= id })
	if k == len(w.members) || w.members[k].id != id {
		return -1
	}
	return k
}

// Preparing reports whether member slot of an open switch window has yet
// to prepare the new session — whether its driver need evaluate Prepared
// this period at all.
func (w *Window) Preparing(slot int) bool {
	return w.isSwitch && w.members[slot].prepareS2 == unset
}

// Step folds member slot's playback step of period tick into the ledger.
// prepared reports whether the member now holds the first Qs segments of
// the session the window switched to (see Prepared).
func (w *Window) Step(slot, tick int, st PlaybackStep, prepared bool) {
	mb := &w.members[slot]
	mb.played += st.Played
	mb.stalled += st.Stalled
	if !w.isSwitch {
		return
	}
	if st.Finished == w.session-1 && mb.finishS1 == unset {
		mb.finishS1 = tick
	}
	if st.Started == w.session && mb.startS2 == unset {
		mb.startS2 = tick
	}
	if prepared && mb.prepareS2 == unset {
		mb.prepareS2 = tick
	}
}

// Gone marks member slot as departed (churn or crash).
func (w *Window) Gone(slot int) { w.members[slot].gone = true }

// AddBits adds buffer-map control bits and data payload bits to the
// window's overhead account.
func (w *Window) AddBits(control, data int64) {
	w.controlBits += control
	w.dataBits += data
}

// AddNet adds transport outcomes: delivered and lost messages, and the
// delivered messages' summed delay in milliseconds.
func (w *Window) AddNet(delivered, lost int64, delayMS float64) {
	w.netDelivered += delivered
	w.netLost += lost
	w.netDelayMS += delayMS
}

// AddReRequests adds granted loss-induced re-requests.
func (w *Window) AddReRequests(n int64) { w.netReRequests += n }

// Due reports whether the open window ends with period tick: a switch
// window's surviving cohort all finished S1 and prepared S2, or the
// horizon ran out.
func (w *Window) Due(tick int) bool {
	return w.m != nil && (w.isSwitch && w.cohortComplete() || tick-w.openTick+1 >= w.horizon)
}

// cohortComplete reports whether every surviving member finished S1 and
// prepared S2.
func (w *Window) cohortComplete() bool {
	for i := range w.members {
		mb := &w.members[i]
		if !mb.gone && (mb.finishS1 == unset || mb.prepareS2 == unset) {
			return false
		}
	}
	return true
}

// Close ends the open window at period tick and returns its block, nil
// when none is open. A window Due reported ends after the period ran; an
// interrupted one — cut short by the next window's event or by the end
// of the run — ends before it. Samples come out in ascending member id
// order, in seconds after the opening instant: a stamp of period t is
// (t − open + 1)·τ, since events land at the end of their period.
func (w *Window) Close(tick int, interrupted bool) *SwitchMetrics {
	m := w.m
	if m == nil {
		return nil
	}
	switch {
	case interrupted:
		m.MeasuredTicks, m.Interrupted = tick-w.openTick, true
	case w.isSwitch && w.cohortComplete():
		m.MeasuredTicks = tick - w.openTick + 1
	default:
		m.MeasuredTicks, m.HitHorizon = w.horizon, true
	}
	m.ControlBits, m.DataBits = w.controlBits, w.dataBits
	m.NetDelivered, m.NetLost, m.NetReRequests = w.netDelivered, w.netLost, w.netReRequests
	m.NetDelaySeconds = w.netDelayMS / 1000
	for i := range w.members {
		mb := &w.members[i]
		m.PlayedSegments += int64(mb.played)
		m.StalledSlots += int64(mb.stalled)
		if !w.isSwitch {
			continue
		}
		if mb.finishS1 != unset {
			m.FinishS1Times = append(m.FinishS1Times, w.since(mb.finishS1))
		} else if !mb.gone {
			m.UnfinishedS1++
		}
		if mb.prepareS2 != unset {
			m.PrepareS2Times = append(m.PrepareS2Times, w.since(mb.prepareS2))
		} else if !mb.gone {
			m.UnpreparedS2++
		}
		if mb.startS2 != unset {
			m.StartS2Times = append(m.StartS2Times, w.since(mb.startS2))
		}
	}
	w.m = nil
	w.closed.Inc()
	w.trace.Emit(obs.TraceEvent{T: obs.EvWindowClose, Tick: tick,
		Window: obs.P(m.Window), Measured: m.MeasuredTicks,
		Unfinished: m.UnfinishedS1, Unprepared: m.UnpreparedS2})
	return m
}

// since converts a period stamp into seconds after the opening instant.
func (w *Window) since(tick int) float64 {
	return float64(tick-w.openTick+1) * w.tau
}

// MergeWindows folds per-shard results into one, matching windows by
// index: counters sum, sample lists concatenate in shard order and the
// measured span is the longest shard's. Window identity fields (kind,
// tick, the handoff pair) come from the first shard carrying the window —
// every shard applied the same directives, so they agree.
func MergeWindows(parts []*Result) *Result {
	merged := &Result{}
	var windows []*SwitchMetrics
	for _, part := range parts {
		if part == nil {
			continue
		}
		if merged.Algorithm == "" {
			merged.Algorithm = part.Algorithm
		}
		for i, w := range part.Windows {
			for len(windows) <= i {
				windows = append(windows, nil)
			}
			if windows[i] == nil {
				cp := *w
				cp.FinishS1Times = slices.Clone(w.FinishS1Times)
				cp.PrepareS2Times = slices.Clone(w.PrepareS2Times)
				cp.StartS2Times = slices.Clone(w.StartS2Times)
				windows[i] = &cp
				continue
			}
			m := windows[i]
			m.Nodes += w.Nodes
			m.Cohort += w.Cohort
			m.ControlBits += w.ControlBits
			m.DataBits += w.DataBits
			m.PlayedSegments += w.PlayedSegments
			m.StalledSlots += w.StalledSlots
			m.UnfinishedS1 += w.UnfinishedS1
			m.UnpreparedS2 += w.UnpreparedS2
			m.NetDelivered += w.NetDelivered
			m.NetLost += w.NetLost
			m.NetReRequests += w.NetReRequests
			m.NetDelaySeconds += w.NetDelaySeconds
			m.FinishS1Times = append(m.FinishS1Times, w.FinishS1Times...)
			m.PrepareS2Times = append(m.PrepareS2Times, w.PrepareS2Times...)
			m.StartS2Times = append(m.StartS2Times, w.StartS2Times...)
			m.MeasuredTicks = max(m.MeasuredTicks, w.MeasuredTicks)
			m.HitHorizon = m.HitHorizon || w.HitHorizon
			m.Interrupted = m.Interrupted || w.Interrupted
		}
	}
	merged.Windows = windows
	return merged
}
