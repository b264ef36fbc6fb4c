package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

// fakeFacts is a hand-set Facts: every node alive unless listed dead, no
// node a source unless listed, MaxSeen and WindowLo from the maps.
type fakeFacts struct {
	dead, sourced map[overlay.NodeID]bool
	maxSeen, lo   map[overlay.NodeID]segment.ID
}

func (f *fakeFacts) Alive(id overlay.NodeID) bool   { return !f.dead[id] }
func (f *fakeFacts) Sourced(id overlay.NodeID) bool { return f.sourced[id] }
func (f *fakeFacts) MaxSeen(id overlay.NodeID) segment.ID {
	if v, ok := f.maxSeen[id]; ok {
		return v
	}
	return segment.None
}
func (f *fakeFacts) WindowLo(id overlay.NodeID) segment.ID { return f.lo[id] }

// fakeResolver builds a resolver over a ring of n nodes (node i's
// neighbors are i-1 and i+1) whose first source is node 0.
func fakeResolver(n int, churn *ChurnConfig) (*Resolver, *fakeFacts) {
	f := &fakeFacts{
		dead:    map[overlay.NodeID]bool{},
		sourced: map[overlay.NodeID]bool{0: true},
		maxSeen: map[overlay.NodeID]segment.ID{},
		lo:      map[overlay.NodeID]segment.ID{},
	}
	cfg := Config{
		Graph: overlay.Generate(overlay.KindRing, n, 1, rand.New(rand.NewSource(1))),
		Seed:  5, Churn: churn, HorizonTicks: 150,
	}
	return NewResolver(cfg, f), f
}

// open is the first session, still streaming from node 0.
var open = segment.Session{Source: 0, Begin: 0, End: segment.None}

func TestResolverSuccessor(t *testing.T) {
	for _, tc := range []struct {
		name    string
		to      overlay.NodeID
		prepare func(r *Resolver, f *fakeFacts)
		pinned  bool // whether the pinned target must be kept
	}{
		{name: "pinned eligible", to: 3, pinned: true},
		{name: "pinned ex-source", to: 3, prepare: func(_ *Resolver, f *fakeFacts) { f.sourced[3] = true }},
		{name: "pinned departed", to: 3, prepare: func(r *Resolver, _ *fakeFacts) { r.dir.Leave(3) }},
		{name: "pinned out of range", to: 99},
		{name: "random", to: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, f := fakeResolver(10, nil)
			if tc.prepare != nil {
				tc.prepare(r, f)
			}
			d, err := r.Event(Event{Kind: EvSwitchSource, Tick: 4, To: tc.to}, 0, 4, open, 40)
			if err != nil {
				t.Fatal(err)
			}
			if d.Kind != DirSwitch || d.Old != 0 || d.Tick != 4 {
				t.Fatalf("directive %+v", d)
			}
			if tc.pinned != (d.New == tc.to) {
				t.Fatalf("successor %d, pinned %d (keep pinned: %v)", d.New, tc.to, tc.pinned)
			}
			if d.New == 0 || f.sourced[d.New] || !r.dir.IsAlive(d.New) {
				t.Fatalf("ineligible successor %d", d.New)
			}
			if d.Horizon != 150 || d.Failure || d.S1End != 0 {
				t.Fatalf("planned switch %+v: want the default horizon and S1End left to the driver", d)
			}
		})
	}
}

func TestResolverNoSuccessorNamesTick(t *testing.T) {
	r, f := fakeResolver(6, nil)
	for id := overlay.NodeID(1); id < 6; id++ {
		f.sourced[id] = true
	}
	_, err := r.Event(SwitchAt(7, -1), 0, 7, open, 40)
	if err == nil || !strings.Contains(err.Error(), "tick 7") {
		t.Fatalf("err = %v, want a no-successor error naming tick 7", err)
	}
}

func TestResolverCrashTruncation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cur     segment.Session
		maxSeen map[overlay.NodeID]segment.ID
		want    segment.ID
	}{
		// Node 3 is dead under the cohort rule and node 4 is an ex-source:
		// neither counts, so the eligible high-water mark is node 2's.
		{name: "eligible high-water mark", cur: open,
			maxSeen: map[overlay.NodeID]segment.ID{1: 40, 2: 55, 3: 70, 4: 90}, want: 55},
		// Nobody holds anything of the second session yet: S1 truncates
		// empty, at its begin - 1.
		{name: "floor", cur: segment.Session{Source: 0, Begin: 100, End: segment.None},
			maxSeen: map[overlay.NodeID]segment.ID{1: 80, 2: 99}, want: 99},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, f := fakeResolver(10, nil)
			f.dead[3], f.sourced[4], f.maxSeen = true, true, tc.maxSeen
			d, err := r.Event(CrashAt(9, 5), 0, 9, tc.cur, 200)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Failure || d.S1End != tc.want || d.New != 5 {
				t.Fatalf("crash %+v: want S1End %d", d, tc.want)
			}
			if r.dir.IsAlive(0) || len(d.Repair) == 0 {
				t.Fatalf("the crashed source must leave and be repaired around (repair %v)", d.Repair)
			}
		})
	}
}

func TestResolverDemote(t *testing.T) {
	for _, tc := range []struct {
		name    string
		to      overlay.NodeID
		prepare func(f *fakeFacts)
		err     string
	}{
		{name: "no retired source", to: -1, err: "no ex-source to demote"},
		{name: "out of range", to: 99, err: "no ex-source to demote"},
		{name: "never a source", to: 4, err: "never held the source role"},
		{name: "current source", to: 0, err: "is the current source"},
		{name: "dead", to: 5, prepare: func(f *fakeFacts) { f.sourced[5], f.dead[5] = true, true }, err: "is dead"},
		// Ring neighbors 4 and 6: the anchor follows the furthest alive one.
		{name: "anchor", to: 5, prepare: func(f *fakeFacts) {
			f.sourced[5], f.lo[4], f.lo[6] = true, 30, 45
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, f := fakeResolver(10, nil)
			if tc.prepare != nil {
				tc.prepare(f)
			}
			d, err := r.Event(DemoteAt(12, tc.to), 0, 12, open, 40)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) || !strings.Contains(err.Error(), "tick 12") {
					t.Fatalf("err = %v, want %q at tick 12", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if d.Kind != DirDemote || d.Node != 5 || d.Anchor != 45 {
				t.Fatalf("demote %+v, want node 5 anchored at 45", d)
			}
		})
	}
}

func TestResolverDemoteTargetsRetired(t *testing.T) {
	r, f := fakeResolver(10, nil)
	sw, err := r.Event(SwitchAt(5, 3), 0, 5, open, 40)
	if err != nil {
		t.Fatal(err)
	}
	f.sourced[3] = true
	cur := segment.Session{Source: 3, Begin: 40, End: segment.None}
	f.lo[1], f.dead[9] = 38, true // node 0's neighbors: 1 alive, 9 dead
	f.lo[9] = 80
	d, err := r.Event(DemoteAt(8, -1), 1, 8, cur, 60)
	if err != nil || d.Node != sw.Old || d.Anchor != 38 {
		t.Fatalf("demote %+v, %v: want the retired source %d anchored at 38", d, err, sw.Old)
	}
	if _, err := r.Event(DemoteAt(9, -1), 2, 9, cur, 60); err == nil {
		t.Fatal("a second default demote found a retired source")
	}
}

func TestResolverChurnBurst(t *testing.T) {
	r, f := fakeResolver(40, &ChurnConfig{LeaveFraction: 0.1})
	f.dead[7] = true // not arrived yet: never a victim
	if d, err := r.Event(ChurnBurstAt(10, 3, 0.2, 0.1), 0, 10, open, 40); d != nil || err != nil {
		t.Fatalf("a churn burst resolves to (%v, %v), want (nil, nil)", d, err)
	}
	for tick := 10; tick <= 13; tick++ {
		alive := r.dir.AliveCount()
		d := r.Churn(tick)
		leave, join := int(0.2*float64(alive)), int(0.1*float64(alive))
		if tick == 13 { // the burst expired: the baseline resumes
			leave, join = int(0.1*float64(alive)), 0
		}
		// A draw landing on an ineligible node is skipped, not redrawn.
		if d == nil || len(d.Leaves) == 0 || len(d.Leaves) > leave || len(d.Joins) != join {
			t.Fatalf("tick %d: churn %+v, want up to %d leaves and %d joins", tick, d, leave, join)
		}
		if slices.Contains(d.Leaves, 0) || slices.Contains(d.Leaves, 7) {
			t.Fatalf("tick %d: the source or an unarrived node left: %v", tick, d.Leaves)
		}
		for _, js := range d.Joins {
			if js.Profile.In <= 0 || js.Profile.Out <= 0 || len(js.Neighbors) == 0 {
				t.Fatalf("tick %d: joiner %+v", tick, js)
			}
		}
	}
	if r.burst != nil {
		t.Fatal("the expired burst was kept")
	}
}

func TestResolverCrowdAnchor(t *testing.T) {
	cur := segment.Session{Source: 0, Begin: 200, End: segment.None}
	for _, tc := range []struct {
		name    string
		backlog int
		want    segment.ID
	}{
		{name: "whole session", backlog: 0, want: 200},
		{name: "backlog", backlog: 30, want: 270},
		{name: "backlog past the session begin", backlog: 500, want: 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := fakeResolver(10, nil)
			d, err := r.Event(FlashCrowdAt(20, 3, tc.backlog), 2, 20, cur, 300)
			if err != nil {
				t.Fatal(err)
			}
			if d.Kind != DirMembership || len(d.Joins) != 3 {
				t.Fatalf("crowd %+v", d)
			}
			for i, js := range d.Joins {
				if js.ID != overlay.NodeID(10+i) || js.Anchor != tc.want {
					t.Fatalf("joiner %d: %+v, want id %d anchored at %d", i, js, 10+i, tc.want)
				}
			}
			// The profiles come from the event's own stream: a second
			// resolver draws the same ones for the same event index.
			r2, _ := fakeResolver(10, nil)
			d2, _ := r2.Event(FlashCrowdAt(20, 3, tc.backlog), 2, 20, cur, 300)
			for i := range d.Joins {
				if d.Joins[i].Profile != d2.Joins[i].Profile {
					t.Fatalf("joiner %d: profiles %+v and %+v for one event", i, d.Joins[i].Profile, d2.Joins[i].Profile)
				}
			}
		})
	}
}
