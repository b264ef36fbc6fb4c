package runtime

import (
	"gossipstream/internal/obs"
	"gossipstream/internal/overlay"
	"gossipstream/internal/sim"
)

// The measurement collector: the live counterpart of the simulator's
// window bookkeeping. Windows open at switch (and measure) events over
// a frozen cohort, accumulate the cohort's per-period reports, and
// close into the same sim.SwitchMetrics blocks the simulator emits —
// with completion times in scenario seconds (periods × τ), so the
// output of a live run reads identically to a simulated one. What does
// NOT survive the move to the wall clock is bit-level determinism and
// the per-tick ratio series (TrackRatios needs whole-cohort buffer
// scans the runner deliberately has no access to).

// unset marks a per-peer completion that has not happened yet.
const unset = -1

// cohortState tracks one cohort member through a window.
type cohortState struct {
	alive     bool
	finishS1  int // period the peer finished the old stream, unset
	prepareS2 int // period the peer gathered the new stream's startup window
	startS2   int // period the peer started playing the new stream
}

// liveWindow is the open measurement window.
type liveWindow struct {
	active        bool
	isSwitch      bool
	openTick      int
	horizon       int
	newSessionIdx int
	m             *sim.SwitchMetrics
	cohort        map[overlay.NodeID]*cohortState
	statsOpen     TransportStats
}

// openWindow freezes the cohort — every running, arrived, non-source
// peer — and starts accumulating.
func (r *Runner) openWindow(isSwitch bool, horizon int, ev sim.Event) {
	m := &sim.SwitchMetrics{
		Window: len(r.res.Windows),
		Kind:   "measure",
		Tick:   r.tick,
		Nodes:  r.activeCount(),
	}
	cohort := make(map[overlay.NodeID]*cohortState)
	for id := range r.peers {
		if r.activeListener(id) {
			cohort[id] = &cohortState{alive: true, finishS1: unset, prepareS2: unset, startS2: unset}
		}
	}
	m.Cohort = len(cohort)
	if isSwitch {
		m.Kind = "switch"
		m.OldSource = overlay.NodeID(r.timeline[len(r.timeline)-2].Source)
		m.NewSource = overlay.NodeID(r.timeline[len(r.timeline)-1].Source)
		m.Failure = ev.Failure
	}
	r.win = liveWindow{
		active:        true,
		isSwitch:      isSwitch,
		openTick:      r.tick,
		horizon:       horizon,
		newSessionIdx: len(r.timeline) - 1,
		m:             m,
		cohort:        cohort,
		statsOpen:     r.tr.Stats(),
	}
	if ob := r.obs; ob != nil {
		ob.windowOpen.Set(1)
		ob.trace.Emit(obs.TraceEvent{T: obs.EvWindowOpen, Tick: r.tick,
			Window: obs.P(m.Window), Kind: m.Kind, Cohort: m.Cohort})
	}
}

// windowObserve folds one peer report into the open window.
func (r *Runner) windowObserve(rep report) {
	if !r.win.active {
		return
	}
	m := r.win.m
	// Communication accounting covers the whole mesh, like the
	// simulator's global bit counters.
	m.ControlBits += rep.mapBits
	m.DataBits += rep.dataBits
	if r.policy != nil {
		// Loss-induced re-requests, counted at the supplier's re-grant
		// like the simulator's serve phase (and like the Net* counters,
		// only meaningful under a shaping policy).
		m.NetReRequests += int64(rep.reReqs)
	}
	cs, inCohort := r.win.cohort[rep.id]
	if !inCohort {
		return
	}
	cs.alive = rep.alive
	m.PlayedSegments += int64(rep.played)
	m.StalledSlots += int64(rep.stalled)
	if !r.win.isSwitch {
		return
	}
	if rep.finished == r.win.newSessionIdx-1 && cs.finishS1 == unset {
		cs.finishS1 = rep.period
	}
	if rep.started == r.win.newSessionIdx && cs.startS2 == unset {
		cs.startS2 = rep.period
	}
	for _, k := range rep.prepared {
		if k == r.win.newSessionIdx && cs.prepareS2 == unset {
			cs.prepareS2 = rep.period
		}
	}
}

// cohortDied marks a cohort member dead (churn or crash) so it stops
// counting toward completion and the unfinished tallies.
func (r *Runner) cohortDied(id overlay.NodeID) {
	if r.win.active {
		if cs, ok := r.win.cohort[id]; ok {
			cs.alive = false
		}
	}
}

// windowsTick runs the per-period window transition after all reports
// landed: close on cohort completion or horizon expiry (the simulator's
// record phase).
func (r *Runner) windowsTick() {
	if !r.win.active {
		return
	}
	elapsed := r.tick - r.win.openTick + 1
	switch {
	case r.win.isSwitch && r.cohortComplete():
		r.closeWindow(elapsed, false, false)
	case elapsed >= r.win.horizon:
		r.closeWindow(r.win.horizon, true, false)
	}
}

// cohortComplete reports whether every surviving cohort member finished
// the old stream and prepared the new one.
func (r *Runner) cohortComplete() bool {
	for _, cs := range r.win.cohort {
		if !cs.alive {
			continue
		}
		if cs.finishS1 == unset || cs.prepareS2 == unset {
			return false
		}
	}
	return true
}

// timeSince converts a completion period into seconds after the
// window's opening instant — the same convention as the simulator
// (events land at the end of their period).
func (r *Runner) timeSince(period int) float64 {
	return float64(period-r.win.openTick+1) * r.par.tau
}

// closeWindow finalizes the open window (no-op when none is open).
func (r *Runner) closeWindow(measured int, hitHorizon, interrupted bool) {
	if !r.win.active {
		return
	}
	m := r.win.m
	m.MeasuredTicks = measured
	m.HitHorizon = hitHorizon
	m.Interrupted = interrupted
	for _, cs := range r.win.cohort {
		if !r.win.isSwitch {
			continue
		}
		if cs.finishS1 != unset {
			m.FinishS1Times = append(m.FinishS1Times, r.timeSince(cs.finishS1))
		} else if cs.alive {
			m.UnfinishedS1++
		}
		if cs.prepareS2 != unset {
			m.PrepareS2Times = append(m.PrepareS2Times, r.timeSince(cs.prepareS2))
		} else if cs.alive {
			m.UnpreparedS2++
		}
		if cs.startS2 != unset {
			m.StartS2Times = append(m.StartS2Times, r.timeSince(cs.startS2))
		}
	}
	// Transport accounting over the window: only meaningful when a
	// network model shapes the transport (otherwise the counters would
	// report the mechanics of the in-process transport, which have no
	// simulator counterpart and would clutter the comparison).
	if r.policy != nil {
		stats := r.tr.Stats()
		m.NetDelivered = stats.DataDelivered - r.win.statsOpen.DataDelivered
		m.NetLost = stats.DataLost - r.win.statsOpen.DataLost
		m.NetDelaySeconds = (stats.DelayScenarioMS - r.win.statsOpen.DelayScenarioMS) / 1000
	}
	r.res.Windows = append(r.res.Windows, m)
	r.win.active = false
	if ob := r.obs; ob != nil {
		ob.windows.Inc()
		ob.windowOpen.Set(0)
		ob.trace.Emit(obs.TraceEvent{T: obs.EvWindowClose, Tick: r.tick,
			Window: obs.P(m.Window), Measured: m.MeasuredTicks,
			Unfinished: m.UnfinishedS1, Unprepared: m.UnpreparedS2})
	}
}
