package sim

import (
	"testing"

	"gossipstream/internal/segment"
)

// TestScriptMultiSwitchWindows checks the serial-handoff contract: one
// switch-metrics block per SwitchSource event, chained sources, pinned
// targets honored — node 0 included, which an event pins like any other
// id — and FirstSwitch pointing at the first switch window.
func TestScriptMultiSwitchWindows(t *testing.T) {
	g := testTopology(t, 180, 22)
	cfg := quickConfig(g, Fast)
	cfg.Script = &Script{Events: []Event{
		SwitchAt(30, 20),
		SwitchAt(90, 40),
		SwitchAt(150, 0),
	}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 3 {
		t.Fatalf("windows = %d, want 3 (one per SwitchSource)", len(res.Windows))
	}
	for i, w := range res.Windows {
		if w.Kind != "switch" {
			t.Errorf("window %d kind = %q", i, w.Kind)
		}
		if w.Window != i {
			t.Errorf("window %d indexed %d", i, w.Window)
		}
		if w.Cohort == 0 {
			t.Errorf("window %d has empty cohort", i)
		}
		if len(w.PrepareS2Times) == 0 {
			t.Errorf("window %d: nobody prepared", i)
		}
		if i > 0 && w.OldSource != res.Windows[i-1].NewSource {
			t.Errorf("window %d old source %d != previous new source %d",
				i, w.OldSource, res.Windows[i-1].NewSource)
		}
	}
	if res.Windows[0].NewSource != 20 || res.Windows[1].NewSource != 40 || res.Windows[2].NewSource != 0 {
		t.Errorf("pinned targets not honored: %d, %d, %d",
			res.Windows[0].NewSource, res.Windows[1].NewSource, res.Windows[2].NewSource)
	}
	if res.FirstSwitch() != res.Windows[0] {
		t.Error("FirstSwitch is not the first switch window")
	}
	// Each handoff ends the previous speaker's tenure: three sources were
	// promoted, and every promoted node is marked a source.
	for _, w := range res.Windows {
		if !s.nodes[w.NewSource].isSource {
			t.Errorf("promoted node %d not a source", w.NewSource)
		}
	}
}

// TestScriptSourceCrash checks the failure semantics: the old source
// leaves the overlay, and the session truncates at the last segment id
// any surviving node holds — nothing beyond it survives anywhere alive.
func TestScriptSourceCrash(t *testing.T) {
	g := testTopology(t, 160, 23)
	cfg := quickConfig(g, Fast)
	cfg.Script = &Script{Events: []Event{CrashAt(30, -1)}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 1 || !res.Windows[0].Failure {
		t.Fatalf("crash window missing: %+v", res.Windows)
	}
	w := res.Windows[0]
	if s.nodes[w.OldSource].alive || s.dir.IsAlive(w.OldSource) {
		t.Error("crashed source still alive")
	}
	sessions := s.tl.Sessions()
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	s1 := sessions[0]
	// Truncation: no surviving non-source node holds a segment past the
	// closed session end that belongs to S1's id range as generated.
	for _, n := range s.nodes {
		if n.id == w.OldSource || n.isSource {
			continue
		}
		if n.buf.MaxSeen() > s1.End && n.buf.MaxSeen() < sessions[1].Begin {
			t.Fatalf("node %d holds segment %d beyond truncated end %d", n.id, n.buf.MaxSeen(), s1.End)
		}
	}
	// The mesh recovers: the new session is prepared by (nearly) everyone.
	if len(w.PrepareS2Times) == 0 {
		t.Error("nobody prepared the new stream after the crash")
	}
	// The crashed node's former neighbors were re-linked (membership
	// repair): the alive mesh stays one component (the dead node itself
	// is rightly isolated — its edges were cleared).
	for _, comp := range s.g.Components() {
		holdsAlive := false
		for _, v := range comp {
			if s.dir.IsAlive(v) {
				holdsAlive = true
				break
			}
		}
		if holdsAlive && len(comp) < s.dir.AliveCount() {
			t.Errorf("alive mesh fragmented: component of %d nodes vs %d alive", len(comp), s.dir.AliveCount())
		}
	}
}

// TestScriptFlashCrowd checks batch arrivals: population grows by Count
// and the joiners anchor at the current session's beginning (the catch-up
// backlog), bounded by Backlog when set.
func TestScriptFlashCrowd(t *testing.T) {
	g := testTopology(t, 120, 24)
	cfg := quickConfig(g, Fast)
	cfg.JoinSpreadTicks = 0 // simultaneous start: population is exactly N
	cfg.Script = &Script{Events: []Event{
		FlashCrowdAt(20, 30, 0),
		FlashCrowdAt(25, 10, 50),
		SwitchAt(60, -1),
	}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Step manually past both crowds: anchors must be checked at join
	// time, before playback advances them.
	for s.tick = 0; s.tick < 30; s.tick++ {
		s.step()
	}
	if got := len(s.nodes); got != 120+40 {
		t.Fatalf("population = %d, want 160", got)
	}
	for _, n := range s.nodes[120:150] {
		if n.Anchor != 0 {
			t.Errorf("full-catch-up joiner %d anchored at %d, want 0", n.id, n.Anchor)
		}
		if n.joinTick != 20 {
			t.Errorf("joiner %d joinTick = %d", n.id, n.joinTick)
		}
	}
	// Backlog-bounded joiners anchor at most 50 segments behind the head
	// at their join tick (head = 10 segments/tick × 25 ticks).
	for _, n := range s.nodes[150:] {
		if n.Anchor < segment.ID(10*25-50) {
			t.Errorf("bounded joiner %d anchored at %d, backlog > 50", n.id, n.Anchor)
		}
	}
	// Continue through the switch: joiners present before it are part of
	// its cohort.
	for ; s.tick < 65; s.tick++ {
		s.step()
	}
	if got := s.res.Windows; len(got) > 0 {
		t.Fatalf("window closed prematurely: %+v", got)
	}
	// Everyone but the old and the newly promoted source is in the cohort.
	if got := len(s.win.members); got != 120+40-2 {
		t.Errorf("cohort %d does not include the crowd (want %d)", got, 120+40-2)
	}
}

// TestScriptBandwidthShift checks rate rescaling: profiles follow the
// factor relative to the node's base, and factor 1 restores the baseline.
func TestScriptBandwidthShift(t *testing.T) {
	g := testTopology(t, 100, 25)
	cfg := quickConfig(g, Fast)
	cfg.Script = &Script{
		Events:   []Event{BandwidthShiftAt(10, 0.5), BandwidthShiftAt(20, 1.0)},
		Duration: 40,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.tick = 0; s.tick < 15; s.tick++ {
		s.step()
	}
	for _, n := range s.nodes {
		if n.isSource {
			continue
		}
		if n.profile.In != n.base.In*0.5 || n.in.Rate() != n.base.In*0.5 {
			t.Fatalf("node %d not shifted: profile %v, base %v", n.id, n.profile, n.base)
		}
	}
	for ; s.tick < 25; s.tick++ {
		s.step()
	}
	for _, n := range s.nodes {
		if n.isSource {
			continue
		}
		if n.profile != n.base {
			t.Fatalf("node %d not restored: profile %v, base %v", n.id, n.profile, n.base)
		}
	}
}

// TestScriptChurnBurstAndMeasure checks the burst override window and the
// plain measurement window: churn happens only during the burst (no
// baseline churn configured), and the measure window records continuity
// without switch semantics.
func TestScriptChurnBurstAndMeasure(t *testing.T) {
	g := testTopology(t, 150, 26)
	cfg := quickConfig(g, Fast)
	cfg.JoinSpreadTicks = 0
	cfg.Script = &Script{
		Events: []Event{
			MeasureAt(15, 30),
			ChurnBurstAt(20, 10, 0.08, 0.04), // asymmetric: the mesh shrinks during the storm
		},
		Duration: 60,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.nodes) <= 150 {
		t.Error("burst joins did not grow the node slots")
	}
	if s.dir.AliveCount() == 150 {
		t.Error("burst did not churn the population")
	}
	if len(res.Windows) != 1 {
		t.Fatalf("windows = %d, want 1", len(res.Windows))
	}
	w := res.Windows[0]
	if w.Kind != "measure" || w.MeasuredTicks != 30 || !w.HitHorizon {
		t.Errorf("measure window malformed: %+v", w)
	}
	if w.PlayedSegments == 0 {
		t.Error("measure window recorded no playback")
	}
	if len(w.PrepareS2Times) != 0 || len(w.FinishS1Times) != 0 {
		t.Error("measure window carries switch metrics")
	}
	// Churn stops after the burst: the alive count is stable afterwards.
	after := s.dir.AliveCount()
	for i := 0; i < 5; i++ {
		s.tick = 60 + i
		s.step()
	}
	if s.dir.AliveCount() != after {
		t.Error("churn continued after the burst window")
	}
}

// TestScriptInterruptedWindow checks that a handoff firing before the
// previous cohort completes closes that window as Interrupted.
func TestScriptInterruptedWindow(t *testing.T) {
	g := testTopology(t, 150, 27)
	cfg := quickConfig(g, Fast)
	cfg.Script = &Script{Events: []Event{
		SwitchAt(30, -1),
		SwitchAt(33, -1), // long before anyone can gather Qs segments
	}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(res.Windows))
	}
	w0 := res.Windows[0]
	if !w0.Interrupted || w0.MeasuredTicks != 3 {
		t.Errorf("first window not interrupted at 3 ticks: %+v", w0)
	}
}

// TestScriptSourceExhaustion: a script demanding more random switches
// than there are never-source nodes must surface as a Run error, not a
// panic (scenario files are user input).
func TestScriptSourceExhaustion(t *testing.T) {
	g := testTopology(t, 6, 29)
	cfg := quickConfig(g, Fast)
	cfg.JoinSpreadTicks = 0
	events := make([]Event, 8) // 8 switches on a 6-node mesh
	for i := range events {
		events[i] = SwitchAt(5+2*i, -1)
	}
	cfg.Script = &Script{Events: events}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("source exhaustion did not surface as a Run error")
	}
}

// TestScriptExplicitDuration: a user-set Duration is honored exactly —
// an event-free script runs its full length, and a window cut short by
// the cap reports Interrupted, not HitHorizon.
func TestScriptExplicitDuration(t *testing.T) {
	g := testTopology(t, 80, 30)
	cfg := quickConfig(g, Fast)
	cfg.Script = &Script{Duration: 50} // no events at all
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.tick != 50 {
		t.Errorf("event-free run stopped at tick %d, want the explicit 50", s.tick)
	}
	if len(res.Windows) != 0 {
		t.Errorf("event-free run grew %d windows", len(res.Windows))
	}
	if sw := res.FirstSwitch(); sw != nil {
		t.Errorf("FirstSwitch on a run with no windows = %+v, want nil", sw)
	}

	// A window cut short by the cap: 5 ticks after the switch, nodes that
	// arrived at spread tick 15 cannot have played S1 to its end (300
	// segments at p=10), so the cohort cannot be complete — only the
	// duration cap can close this window.
	g2 := testTopology(t, 80, 30)
	cfg2 := quickConfig(g2, Fast)
	cfg2.Script = &Script{Events: []Event{SwitchAt(30, -1)}, Duration: 35}
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	w := res2.Windows[0]
	if !w.Interrupted || w.HitHorizon {
		t.Errorf("duration-capped window flags wrong (want Interrupted, not HitHorizon): %+v", w)
	}
	if w.MeasuredTicks != 5 {
		t.Errorf("capped window measured %d ticks, want 5", w.MeasuredTicks)
	}
}
