package sim

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"gossipstream/internal/overlay"
)

// TestWindowLedger drives Window through open → steps → close the way
// both backends do (Due at every period end, Close when due or when an
// event interrupts) and pins what the closed block reports.
func TestWindowLedger(t *testing.T) {
	const (
		tau  = 0.5
		open = 10
	)
	// One member's step in one period; gone marks a departure instead.
	type step struct {
		tick     int
		id       overlay.NodeID
		st       PlaybackStep
		prepared bool
		gone     bool
	}
	finished := PlaybackStep{Started: -1, Finished: 0} // played S1 (session 0) out
	started := PlaybackStep{Started: 1, Finished: -1}  // started S2 (session 1)
	playing := PlaybackStep{Played: 4, Stalled: 1, Started: -1, Finished: -1}
	both := PlaybackStep{Played: 2, Started: 1, Finished: 0}

	type want struct {
		closedAt               int
		measured               int
		hitHorizon, interrupt  bool
		finish, prepare, start []float64
		unfinished, unprepared int
		played, stalled        int64
	}
	cases := []struct {
		name      string
		isSwitch  bool
		horizon   int
		cohort    []overlay.NodeID
		steps     []step
		interrupt int // close interrupted at the start of this period; 0 = never
		want      want
	}{
		{
			// Steps arrive in descending id order, samples come out ascending.
			name: "completes", isSwitch: true, horizon: 50,
			cohort: []overlay.NodeID{5, 2, 9},
			steps: []step{
				{tick: 11, id: 9, st: finished, prepared: true},
				{tick: 12, id: 5, st: finished},
				{tick: 12, id: 2, st: both, prepared: true},
				{tick: 13, id: 9, st: started},
				{tick: 13, id: 5, st: started, prepared: true},
			},
			want: want{
				closedAt: 13, measured: 4,
				finish:  []float64{1.5, 1.5, 1.0},
				prepare: []float64{1.5, 2.0, 1.0},
				start:   []float64{1.5, 2.0, 2.0},
				played:  2,
			},
		},
		{
			name: "horizon", isSwitch: true, horizon: 3,
			cohort: []overlay.NodeID{4, 1},
			steps: []step{
				{tick: 10, id: 4, st: finished, prepared: true},
				{tick: 11, id: 1, st: finished},
				{tick: 11, id: 4, st: playing},
			},
			want: want{
				closedAt: 12, measured: 3, hitHorizon: true,
				finish: []float64{1.0, 0.5}, prepare: []float64{0.5},
				unprepared: 1, played: 4, stalled: 1,
			},
		},
		{
			name: "interrupted", isSwitch: true, horizon: 50,
			cohort: []overlay.NodeID{3, 7},
			steps: []step{
				{tick: 11, id: 7, st: finished, prepared: true},
				{tick: 12, id: 3, st: finished}, // never runs: interrupted first
			},
			interrupt: 12,
			want: want{
				closedAt: 12, measured: 2, interrupt: true,
				finish: []float64{1.0}, prepare: []float64{1.0},
				unfinished: 1, unprepared: 1,
			},
		},
		{
			// The gone member neither holds the window open nor counts as
			// unfinished or unprepared.
			name: "gone", isSwitch: true, horizon: 50,
			cohort: []overlay.NodeID{1, 2},
			steps: []step{
				{tick: 10, id: 2, st: playing},
				{tick: 11, id: 2, gone: true},
				{tick: 11, id: 1, st: both, prepared: true},
			},
			want: want{
				closedAt: 11, measured: 2,
				finish: []float64{1.0}, prepare: []float64{1.0}, start: []float64{1.0},
				played: 6, stalled: 1,
			},
		},
		{
			// Completion events on a measure window are ignored; only
			// continuity counts, and only the horizon closes it.
			name: "measure", isSwitch: false, horizon: 2,
			cohort: []overlay.NodeID{8, 6},
			steps: []step{
				{tick: 10, id: 8, st: both, prepared: true},
				{tick: 11, id: 6, st: playing, prepared: true},
			},
			want: want{closedAt: 11, measured: 2, hitHorizon: true, played: 6, stalled: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWindow(tau, nil, nil)
			w.Open(WindowHeader{Index: 3, Tick: open, Nodes: 20, Horizon: tc.horizon,
				Switch: tc.isSwitch, Session: 1, OldSource: 0, NewSource: 11}, tc.cohort)
			if got := len(w.members); got != len(tc.cohort) {
				t.Fatalf("ledger holds %d members, cohort %d", got, len(tc.cohort))
			}
			if !slices.IsSortedFunc(w.members, func(a, b member) int { return int(a.id - b.id) }) {
				t.Fatalf("ledger not in ascending id order: %+v", w.members)
			}
			if w.Slot(99) != -1 {
				t.Fatal("non-member has a slot")
			}
			w.AddBits(620, 30*1024)
			w.AddNet(2, 1, 150)
			w.AddReRequests(1)

			var m *SwitchMetrics
			for tick := open; m == nil && tick < open+100; tick++ {
				if tick == tc.interrupt {
					m = w.Close(tick, true)
					if m != nil {
						if tick != tc.want.closedAt {
							t.Fatalf("closed at %d, want %d", tick, tc.want.closedAt)
						}
					}
					break
				}
				for _, s := range tc.steps {
					if s.tick != tick {
						continue
					}
					k := w.Slot(s.id)
					if k < 0 {
						t.Fatalf("member %d has no slot", s.id)
					}
					if s.gone {
						w.Gone(k)
						continue
					}
					w.Step(k, tick, s.st, s.prepared)
				}
				if w.Due(tick) {
					if tick != tc.want.closedAt {
						t.Fatalf("due at %d, want %d", tick, tc.want.closedAt)
					}
					m = w.Close(tick, false)
				}
			}
			if m == nil {
				t.Fatal("window never closed")
			}
			if w.Active() || w.Slot(tc.cohort[0]) != -1 || w.Close(tc.want.closedAt, true) != nil {
				t.Fatal("window still open after Close")
			}

			wantKind := "measure"
			if tc.isSwitch {
				wantKind = "switch"
			}
			if m.Window != 3 || m.Tick != open || m.Nodes != 20 || m.Cohort != len(tc.cohort) || m.Kind != wantKind {
				t.Errorf("identity = %+v", m)
			}
			if m.MeasuredTicks != tc.want.measured || m.HitHorizon != tc.want.hitHorizon || m.Interrupted != tc.want.interrupt {
				t.Errorf("measured/horizon/interrupted = %d/%t/%t, want %d/%t/%t",
					m.MeasuredTicks, m.HitHorizon, m.Interrupted, tc.want.measured, tc.want.hitHorizon, tc.want.interrupt)
			}
			for _, c := range []struct {
				name      string
				got, want []float64
			}{
				{"FinishS1Times", m.FinishS1Times, tc.want.finish},
				{"PrepareS2Times", m.PrepareS2Times, tc.want.prepare},
				{"StartS2Times", m.StartS2Times, tc.want.start},
			} {
				if len(c.got) != len(c.want) || (len(c.got) > 0 && !reflect.DeepEqual(c.got, c.want)) {
					t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
				}
				for _, v := range c.got {
					if v <= 0 || v > float64(m.MeasuredTicks)*tau {
						t.Errorf("%s sample %v outside (0, %v]", c.name, v, float64(m.MeasuredTicks)*tau)
					}
				}
			}
			if m.UnfinishedS1 != tc.want.unfinished || m.UnpreparedS2 != tc.want.unprepared {
				t.Errorf("unfinished/unprepared = %d/%d, want %d/%d",
					m.UnfinishedS1, m.UnpreparedS2, tc.want.unfinished, tc.want.unprepared)
			}
			if m.PlayedSegments != tc.want.played || m.StalledSlots != tc.want.stalled {
				t.Errorf("played/stalled = %d/%d, want %d/%d",
					m.PlayedSegments, m.StalledSlots, tc.want.played, tc.want.stalled)
			}
			if m.ControlBits != 620 || m.DataBits != 30*1024 || m.NetDelivered != 2 || m.NetLost != 1 ||
				m.NetReRequests != 1 || m.NetDelaySeconds != 0.15 {
				t.Errorf("counters = %+v", m)
			}
		})
	}
}

// TestWindowReopenResets checks the ledger and counters are reused, not
// carried over, across windows.
func TestWindowReopenResets(t *testing.T) {
	w := NewWindow(1, nil, nil)
	w.Open(WindowHeader{Tick: 0, Horizon: 5, Switch: true, Session: 1}, []overlay.NodeID{1, 2, 3})
	w.Step(w.Slot(2), 0, PlaybackStep{Played: 3, Started: -1, Finished: 0}, true)
	w.AddBits(5, 6)
	w.Close(1, true)
	w.Open(WindowHeader{Index: 1, Tick: 2, Horizon: 5, Switch: true, Session: 2}, []overlay.NodeID{2})
	if !w.Preparing(w.Slot(2)) {
		t.Fatal("member kept its previous window's prepare stamp")
	}
	m := w.Close(3, true)
	if len(m.FinishS1Times)+len(m.PrepareS2Times) != 0 || m.PlayedSegments != 0 || m.ControlBits != 0 || m.DataBits != 0 {
		t.Fatalf("second window inherited the first's state: %+v", m)
	}
}

// TestWindowStepConcurrent steps distinct members from several goroutines
// at once, the way the simulator's sharded playback phase does (run it
// under -race).
func TestWindowStepConcurrent(t *testing.T) {
	const members = 64
	w := NewWindow(1, nil, nil)
	cohort := make([]overlay.NodeID, members)
	for i := range cohort {
		cohort[i] = overlay.NodeID(members - 1 - i)
	}
	w.Open(WindowHeader{Horizon: 10, Switch: true, Session: 1}, cohort)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := overlay.NodeID(g); id < members; id += 4 {
				k := w.Slot(id)
				if w.Preparing(k) {
					w.Step(k, int(id%3), PlaybackStep{Played: 1, Started: 1, Finished: 0}, true)
				}
			}
		}()
	}
	wg.Wait()
	if !w.Due(0) {
		t.Fatal("cohort incomplete after every member stepped")
	}
	m := w.Close(0, false)
	if m.PlayedSegments != members || len(m.PrepareS2Times) != members {
		t.Fatalf("played %d with %d prepare samples, want %d each", m.PlayedSegments, len(m.PrepareS2Times), members)
	}
	for i, v := range m.PrepareS2Times {
		if want := float64(i%3 + 1); v != want {
			t.Fatalf("member %d sample %v, want %v", i, v, want)
		}
	}
}

// TestMergeWindows checks the cross-shard merge: windows match by index,
// counters sum, samples concatenate in shard order, the measured span is
// the longest shard's, and the merge never aliases a part's samples.
func TestMergeWindows(t *testing.T) {
	a0 := &SwitchMetrics{Window: 0, Kind: "switch", Tick: 40, OldSource: 1, NewSource: 2,
		Nodes: 10, Cohort: 8, FinishS1Times: []float64{1, 2}, PrepareS2Times: []float64{3},
		UnpreparedS2: 1, ControlBits: 100, DataBits: 1000, PlayedSegments: 50, StalledSlots: 5,
		NetDelivered: 7, NetDelaySeconds: 0.25, MeasuredTicks: 20}
	a1 := &SwitchMetrics{Window: 1, Kind: "measure", Tick: 70, Nodes: 10, Cohort: 8, MeasuredTicks: 5, Interrupted: true}
	b0 := &SwitchMetrics{Window: 0, Kind: "switch", Tick: 40, OldSource: 1, NewSource: 2,
		Nodes: 9, Cohort: 9, FinishS1Times: []float64{4}, PrepareS2Times: []float64{5, 6},
		StartS2Times: []float64{6}, UnfinishedS1: 2, ControlBits: 10, DataBits: 300,
		PlayedSegments: 20, StalledSlots: 1, NetLost: 3, NetReRequests: 2, NetDelaySeconds: 0.5,
		MeasuredTicks: 25, HitHorizon: true}
	parts := []*Result{
		{Algorithm: "fast", Windows: []*SwitchMetrics{a0, a1}},
		nil,
		{Algorithm: "fast", Windows: []*SwitchMetrics{b0}},
	}
	got := MergeWindows(parts)
	if got.Algorithm != "fast" || len(got.Windows) != 2 {
		t.Fatalf("merged %q with %d windows", got.Algorithm, len(got.Windows))
	}
	want0 := SwitchMetrics{Window: 0, Kind: "switch", Tick: 40, OldSource: 1, NewSource: 2,
		Nodes: 19, Cohort: 17, FinishS1Times: []float64{1, 2, 4}, PrepareS2Times: []float64{3, 5, 6},
		StartS2Times: []float64{6}, UnfinishedS1: 2, UnpreparedS2: 1, ControlBits: 110, DataBits: 1300,
		PlayedSegments: 70, StalledSlots: 6, NetDelivered: 7, NetLost: 3, NetReRequests: 2,
		NetDelaySeconds: 0.75, MeasuredTicks: 25, HitHorizon: true}
	if !reflect.DeepEqual(*got.Windows[0], want0) {
		t.Errorf("window 0 =\n%+v\nwant\n%+v", *got.Windows[0], want0)
	}
	if !reflect.DeepEqual(*got.Windows[1], *a1) || got.Windows[1] == a1 {
		t.Errorf("window 1 = %+v, want a copy of %+v", *got.Windows[1], *a1)
	}
	got.Windows[0].FinishS1Times[0] = -1
	if len(a0.FinishS1Times) != 2 || a0.FinishS1Times[0] != 1 {
		t.Errorf("merge aliased a part's samples: %v", a0.FinishS1Times)
	}
}
