package sim

import (
	"slices"

	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

// Ledger is one requester's record of what it asked for in the pull step
// of Section 4: the segments in flight, each with the tick it was issued
// at; the segments whose request was lost, whose next request counts as
// a re-request; and this period's denials by supplier. The simulator
// issues at the serve commit and lands or loses at delivery. The live
// peer issues when it sends a request, lands on data or a final deny,
// and expires its requests at refill, because a lost live request shows
// only by its silence. Each set is a flat slice scanned linearly (a node
// has at most a period or two of inbound in flight); the zero value is
// an empty ledger.
type Ledger struct {
	// inflight and lost list the segments in flight and lost (never
	// both); issued and lostAt hold the tick each was issued or lost at.
	inflight, lost []segment.ID
	issued, lostAt []int
	// denials are this period's denials; denied backs Denied's result.
	denials []denial
	denied  []overlay.NodeID
}

type denial struct {
	seg segment.ID
	by  overlay.NodeID
}

// InFlight is the set of segments in flight, in no particular order, as
// Planner.Plan takes it. The slice is valid until the next transition.
func (l *Ledger) InFlight() []segment.ID { return l.inflight }

// Has reports whether seg is in flight.
func (l *Ledger) Has(seg segment.ID) bool { return slices.Contains(l.inflight, seg) }

// IssuedAt is the tick seg was last issued at, and whether it is in
// flight.
func (l *Ledger) IssuedAt(seg segment.ID) (int, bool) {
	if i := slices.Index(l.inflight, seg); i >= 0 {
		return l.issued[i], true
	}
	return 0, false
}

// Issue puts seg, which is not in flight, in flight from tick and
// reports whether it is a re-request: whether its last request was lost.
// The loss record is consumed, so each loss counts at most once.
func (l *Ledger) Issue(seg segment.ID, tick int) bool {
	l.inflight, l.issued = append(l.inflight, seg), append(l.issued, tick)
	i := slices.Index(l.lost, seg)
	if i >= 0 {
		l.lost, l.lostAt = slices.Delete(l.lost, i, i+1), slices.Delete(l.lostAt, i, i+1)
	}
	return i >= 0
}

// Land takes seg out of flight with no loss on record: its data arrived,
// it was denied for good, or its receiver left the overlay.
func (l *Ledger) Land(seg segment.ID) {
	if i := slices.Index(l.inflight, seg); i >= 0 {
		l.inflight, l.issued = slices.Delete(l.inflight, i, i+1), slices.Delete(l.issued, i, i+1)
	}
}

// LandAll lands every segment in flight: the simulator's end-of-period
// delivery without the netmodel transport.
func (l *Ledger) LandAll() { l.inflight, l.issued = l.inflight[:0], l.issued[:0] }

// Lose takes seg out of flight and records it lost at tick; seg is not
// on record as lost already.
func (l *Ledger) Lose(seg segment.ID, tick int) {
	l.Land(seg)
	l.lost, l.lostAt = append(l.lost, seg), append(l.lostAt, tick)
}

// Expire starts the live peer's period tick. A request stays in flight
// for the period it was issued in plus one, while its answer may be
// crossing the wire; an older one got neither data nor a deny, so it is
// lost at tick. A loss older than eight periods is forgotten: playback
// has moved past it. The last period's denials are cleared.
func (l *Ledger) Expire(tick int) {
	for i := len(l.inflight) - 1; i >= 0; i-- {
		if l.issued[i] < tick-1 {
			l.Lose(l.inflight[i], tick)
		}
	}
	for i := len(l.lost) - 1; i >= 0; i-- {
		if l.lostAt[i] < tick-8 {
			l.lost, l.lostAt = slices.Delete(l.lost, i, i+1), slices.Delete(l.lostAt, i, i+1)
		}
	}
	l.denials = l.denials[:0]
}

// Deny records that supplier by denied seg this period and returns
// Denied(seg).
func (l *Ledger) Deny(seg segment.ID, by overlay.NodeID) []overlay.NodeID {
	l.denials = append(l.denials, denial{seg, by})
	return l.Denied(seg)
}

// Denied lists the suppliers that denied seg this period, in the order
// they did. The slice is reused by the next call.
func (l *Ledger) Denied(seg segment.ID) []overlay.NodeID {
	l.denied = l.denied[:0]
	for _, d := range l.denials {
		if d.seg == seg {
			l.denied = append(l.denied, d.by)
		}
	}
	return l.denied
}
