package sim

import (
	"testing"

	"gossipstream/internal/segment"
)

// TestLedgerNetTransitions pins the transitions the netmodel transit
// drives (phaseTransit): a segment whose message was lost or severed
// counts one re-request when it is granted again, and no more after
// that; one whose message evaporated, because its receiver left
// mid-flight, counts none, and neither does a delivered one. The
// in-flight set the planner excludes follows every transition.
func TestLedgerNetTransitions(t *testing.T) {
	const lost, evaporated, delivered = segment.ID(1), segment.ID(2), segment.ID(3)
	var l Ledger
	for _, seg := range []segment.ID{lost, evaporated, delivered} {
		if l.Issue(seg, 1) {
			t.Fatalf("first grant of %d counted as a re-request", seg)
		}
	}
	if !l.Has(lost) || len(l.InFlight()) != 3 {
		t.Fatalf("in flight after three grants: %v", l.InFlight())
	}
	l.Lose(lost, 2)
	l.Land(evaporated)
	l.Land(delivered)
	if len(l.InFlight()) != 0 {
		t.Fatalf("still in flight after transit: %v", l.InFlight())
	}
	for seg, want := range map[segment.ID]bool{lost: true, evaporated: false, delivered: false} {
		if got := l.Issue(seg, 3); got != want {
			t.Errorf("grant of %d after transit: re-request %v, want %v", seg, got, want)
		}
		l.Land(seg)
		if l.Issue(seg, 4) {
			t.Errorf("second grant of %d after transit counted as a re-request", seg)
		}
	}
	l.LandAll()
	if len(l.InFlight()) != 0 || l.Has(lost) {
		t.Fatalf("in flight after LandAll: %v", l.InFlight())
	}
}
