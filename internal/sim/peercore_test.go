package sim

import (
	"reflect"
	"testing"

	"gossipstream/internal/buffer"
	"gossipstream/internal/segment"
)

// The per-node protocol core is exercised end-to-end by every simulator
// test (nodeState embeds Playback); these unit tests pin the semantics
// the live runtime depends on directly.

func closedSession(src segment.SourceID, begin, end segment.ID) segment.Session {
	return segment.Session{Source: src, Begin: begin, End: end}
}

// TestJoinPlayback pins the one anchor → session lookup every joiner,
// respawn and demote enters playback through.
func TestJoinPlayback(t *testing.T) {
	sessions := []segment.Session{
		closedSession(1, 0, 19),
		closedSession(2, 20, 39),
		{Source: 3, Begin: 40, End: segment.None},
	}
	for _, tc := range []struct {
		name       string
		anchor     segment.ID
		idx, known int
	}{
		{name: "inside a closed session", anchor: 25, idx: 1, known: 2},
		{name: "inside the open session", anchor: 57, idx: 2, known: 3},
		{name: "before the timeline", anchor: segment.None, idx: 0, known: 1},
	} {
		pb := JoinPlayback(sessions, tc.anchor)
		want := Playback{SessionIdx: tc.idx, Known: tc.known, Playhead: tc.anchor, Anchor: tc.anchor}
		if pb != want {
			t.Errorf("%s: JoinPlayback(%d) = %+v, want %+v", tc.name, tc.anchor, pb, want)
		}
	}
}

func TestPlaybackAdvanceStartPlayFinish(t *testing.T) {
	sessions := []segment.Session{
		closedSession(1, 0, 19),
		{Source: 2, Begin: 20, End: segment.None},
	}
	buf := buffer.New(100)
	pb := NewPlayback(0, 0, 1)

	// Below the Q-consecutive start threshold: nothing happens.
	for id := segment.ID(0); id < 5; id++ {
		buf.Insert(id)
	}
	st := pb.Advance(buf, sessions, 5)
	if st.Started != -1 || st.Played != 0 || pb.Active {
		t.Fatalf("started below threshold: %+v", st)
	}

	// Q=10 consecutive: starts and plays a full period.
	for id := segment.ID(5); id < 15; id++ {
		buf.Insert(id)
	}
	st = pb.Advance(buf, sessions, 5)
	if st.Started != 0 || st.Played != 10 || st.Stalled != 0 {
		t.Fatalf("start period: %+v", st)
	}
	if pb.Playhead != 10 || pb.WindowLo() != 10 {
		t.Fatalf("playhead %d windowLo %d", pb.Playhead, pb.WindowLo())
	}

	// A hole at 15 stalls the rest of the period.
	st = pb.Advance(buf, sessions, 5)
	if st.Played != 5 || st.Stalled != 5 || st.Finished != -1 {
		t.Fatalf("stall period: %+v", st)
	}

	// Filling to the session end finishes it and parks at the successor.
	for id := segment.ID(15); id < 20; id++ {
		buf.Insert(id)
	}
	st = pb.Advance(buf, sessions, 5)
	if st.Finished != 0 || pb.SessionIdx != 1 || pb.Anchor != 20 || pb.Active {
		t.Fatalf("finish period: %+v, pb %+v", st, pb)
	}

	// The successor session needs its first qs=5 segments to start.
	for id := segment.ID(20); id < 24; id++ {
		buf.Insert(id)
	}
	if st = pb.Advance(buf, sessions, 5); st.Started != -1 {
		t.Fatalf("successor started below qs: %+v", st)
	}
	buf.Insert(24)
	if st = pb.Advance(buf, sessions, 5); st.Started != 1 || st.Played != 5 {
		t.Fatalf("successor start: %+v", st)
	}
}

func TestPlaybackDiscoverAndNeedWindows(t *testing.T) {
	sessions := []segment.Session{
		closedSession(1, 0, 9),
		{Source: 2, Begin: 10, End: segment.None},
	}
	buf := buffer.New(50)
	buf.Insert(0)
	buf.Insert(2)
	pb := NewPlayback(0, 0, 1)

	// A high-water mark below the successor's begin reveals nothing.
	pb.Discover(sessions, 9)
	if pb.Known != 1 {
		t.Fatalf("known = %d before discovery", pb.Known)
	}
	needs, split := pb.NeedWindowsInto(buf, sessions, 9, 50, 4, nil, nil)
	needOld, needNew := needs[:split], needs[split:]
	if want := []segment.ID{1, 3, 4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(needOld, want) {
		t.Fatalf("needOld %v, want %v", needOld, want)
	}
	if len(needNew) != 0 {
		t.Fatalf("needNew %v before discovery", needNew)
	}

	// Seeing a successor segment reveals the session; its first qs=4
	// ids become the new-stream window, minus holdings and in-flight.
	pb.Discover(sessions, 12)
	if pb.Known != 2 {
		t.Fatalf("known = %d after discovery", pb.Known)
	}
	buf.Insert(10)
	needs, split = pb.NeedWindowsInto(buf, sessions, 12, 50, 4, []segment.ID{11}, needs[:0])
	needOld, needNew = needs[:split], needs[split:]
	if want := []segment.ID{1, 3, 4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(needOld, want) {
		t.Fatalf("needOld %v, want %v (clipped at the session end)", needOld, want)
	}
	if want := []segment.ID{12, 13}; !reflect.DeepEqual(needNew, want) {
		t.Fatalf("needNew %v, want %v (10 held, 11 in flight)", needNew, want)
	}
}

func TestPreparedMatchesUndeliveredWindow(t *testing.T) {
	sessions := []segment.Session{{Begin: 0, End: 19}, {Source: 1, Begin: 20, End: segment.None}}
	buf := buffer.New(50)
	for id := segment.ID(20); id < 24; id++ {
		buf.Insert(id)
	}
	pb := NewPlayback(0, 0, 2)
	if k := pb.PreparedSession(buf, sessions, 5); k != -1 {
		t.Fatalf("prepared session %d with one segment missing", k)
	}
	buf.Insert(24)
	if k := pb.PreparedSession(buf, sessions, 5); k != 1 {
		t.Fatalf("prepared session %d with the full startup window held, want 1", k)
	}
	pb.Known = 1
	if k := pb.PreparedSession(buf, sessions, 5); k != -1 {
		t.Fatalf("prepared session %d before discovering the second session", k)
	}
}
