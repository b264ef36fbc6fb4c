package sim

import (
	"fmt"

	"gossipstream/internal/overlay"
	"gossipstream/internal/stats"
)

// SwitchMetrics is everything one measurement window recorded. A run
// produces one window per SwitchSource or MeasureWindow event of its
// script (the paper's single-switch script has exactly one), so a
// three-handoff conference reports three switch-metrics blocks. Times are seconds
// relative to the window's opening instant ("simulation time 0" in the
// paper's figures — the switch instant for switch windows).
type SwitchMetrics struct {
	Window int    // position in the run's window sequence
	Kind   string // "switch" (a SwitchSource event) or "measure"
	Tick   int    // absolute tick the window opened (the switch instant)

	// Switch windows only: the handoff endpoints.
	OldSource overlay.NodeID // the source that stopped streaming
	NewSource overlay.NodeID // the promoted source
	Failure   bool           // the old source crashed instead of handing off

	Nodes  int // alive nodes when the window opened
	Cohort int // nodes eligible for the window's metrics

	// Per-node completion times (only nodes that completed in-window).
	FinishS1Times  []float64 // finished the whole playback of the ended stream
	PrepareS2Times []float64 // gathered the first Qs segments of the new stream
	StartS2Times   []float64 // actually started playing the new stream

	// Incomplete counts at window end.
	UnfinishedS1 int
	UnpreparedS2 int

	// Ratio tracks (Figures 5/9); nil unless Config.TrackRatios (switch
	// windows only).
	UndeliveredS1 *stats.Series // Σ Q1(t) / Σ Q0 over the surviving cohort
	DeliveredS2   *stats.Series // Σ (Qs−Q2(t)) / Σ Qs over the surviving cohort

	// Communication accounting over the window.
	ControlBits int64
	DataBits    int64

	// Transport accounting over the window (all zero unless the run
	// enabled Config.Net): messages delivered and lost in transit, the
	// loss-induced re-requests that got re-granted, and the delivered
	// messages' summed delivery delay in seconds — true link delays,
	// sub-period resolution.
	NetDelivered    int64
	NetLost         int64
	NetReRequests   int64
	NetDelaySeconds float64

	// Playback continuity accounting over the window, summed across the
	// cohort: segments actually played, and playback slots lost to a
	// stall (a hole at the playhead while mid-stream).
	PlayedSegments int64
	StalledSlots   int64

	// MeasuredTicks is the length of the window.
	MeasuredTicks int
	// HitHorizon reports whether the window stopped at its horizon rather
	// than at cohort completion.
	HitHorizon bool
	// Interrupted reports whether a later event cut the window short
	// (e.g. the next handoff of a chain fired before the cohort
	// completed).
	Interrupted bool
}

// Continuity returns the cohort's playback continuity during the window:
// played / (played + stalled). The paper argues the fast switch
// "indirectly increases the playback continuity"; this makes the claim
// measurable. Returns 1 when nothing was played (no slots lost).
func (m *SwitchMetrics) Continuity() float64 {
	total := m.PlayedSegments + m.StalledSlots
	if total == 0 {
		return 1
	}
	return float64(m.PlayedSegments) / float64(total)
}

// AvgFinishS1 returns the average finishing time of the ended stream
// (paper metric).
func (m *SwitchMetrics) AvgFinishS1() float64 { return stats.Mean(m.FinishS1Times) }

// AvgPrepareS2 returns the average preparing time of the new stream —
// the paper's "average switch time".
func (m *SwitchMetrics) AvgPrepareS2() float64 { return stats.Mean(m.PrepareS2Times) }

// AvgStartS2 returns the average actual playback start time of the new
// stream (max of the two start conditions per node).
func (m *SwitchMetrics) AvgStartS2() float64 { return stats.Mean(m.StartS2Times) }

// MaxFinishS1 returns the last node's finishing time.
func (m *SwitchMetrics) MaxFinishS1() float64 { return stats.Max(m.FinishS1Times) }

// MaxPrepareS2 returns the last node's preparing time.
func (m *SwitchMetrics) MaxPrepareS2() float64 { return stats.Max(m.PrepareS2Times) }

// MeanDeliveryDelay returns the average in-window delivery delay of the
// transport model in seconds (0 without Config.Net or when nothing was
// delivered). These are true link delays — well below one period on a
// fast mesh.
func (m *SwitchMetrics) MeanDeliveryDelay() float64 {
	if m.NetDelivered == 0 {
		return 0
	}
	return m.NetDelaySeconds / float64(m.NetDelivered)
}

// LossRate returns the fraction of in-window transport messages lost in
// transit (loss draws plus partition drops).
func (m *SwitchMetrics) LossRate() float64 {
	total := m.NetDelivered + m.NetLost
	if total == 0 {
		return 0
	}
	return float64(m.NetLost) / float64(total)
}

// Overhead returns the communication overhead: buffer-map control bits
// over data payload bits in the window (Section 5.2 metric 3).
func (m *SwitchMetrics) Overhead() float64 {
	if m.DataBits == 0 {
		return 0
	}
	return float64(m.ControlBits) / float64(m.DataBits)
}

// String implements fmt.Stringer with the window's headline numbers.
func (m *SwitchMetrics) String() string {
	if m.Kind == "measure" {
		return fmt.Sprintf("window %d (measure, t=%d): cohort=%d continuity=%.4f overhead=%.4f",
			m.Window, m.Tick, m.Cohort, m.Continuity(), m.Overhead())
	}
	return fmt.Sprintf("window %d (switch %d->%d, t=%d): cohort=%d finishS1=%.2fs prepareS2=%.2fs (unfinished=%d unprepared=%d)",
		m.Window, m.OldSource, m.NewSource, m.Tick, m.Cohort,
		m.AvgFinishS1(), m.AvgPrepareS2(), m.UnfinishedS1, m.UnpreparedS2)
}

// NetAudit is the transport's whole-run message ledger, kept regardless
// of measurement windows (the per-window Net* counters only accumulate
// while a window is open). Every message handed to the transport is
// accounted for exactly once, so the ledger closes:
//
//	Injected == Delivered + Lost + Severed + Evaporated + InFlight
//
// The run-invariant checker (CheckInvariants) audits this conservation
// law on every completed netmodel run; the counters are deterministic,
// so they are also covered by the worker-count invariance pins.
type NetAudit struct {
	Injected   int64 // messages handed to the transport (committed grants)
	Delivered  int64 // messages that reached their destination's buffer
	Lost       int64 // messages dropped by a loss draw
	Severed    int64 // messages dropped crossing an active partition
	Evaporated int64 // messages whose destination died mid-flight
	InFlight   int64 // messages still airborne when the run ended
}

// Result is everything one simulation run measured: every metric lives
// in Windows, one block per measurement window.
type Result struct {
	Algorithm string

	// Windows are the run's measurement windows in opening order: one per
	// SwitchSource and MeasureWindow event that fired.
	Windows []*SwitchMetrics

	// Audit is the transport's whole-run message ledger; nil when the run
	// had no netmodel transport (Config.Net unset).
	Audit *NetAudit
}

// FirstSwitch returns the run's first switch window — where a
// single-switch run (the paper's evaluation shape) keeps its metrics —
// or nil when the run opened none. The pointer is into Windows, not a
// copy.
func (r *Result) FirstSwitch() *SwitchMetrics {
	for _, w := range r.Windows {
		if w != nil && w.Kind == "switch" {
			return w
		}
	}
	return nil
}
