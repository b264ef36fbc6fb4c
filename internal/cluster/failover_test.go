package cluster

import "testing"

// drive advances the detector n ticks with nothing excused, collecting
// every promotion.
func drive(d *Detector, n int) []Transition {
	var out []Transition
	for i := 0; i < n; i++ {
		out = append(out, d.Tick(nil)...)
	}
	return out
}

// TestDetectorStateMachine tables the failure detector's promotion
// ladder: healthy shards stay healthy, silence promotes through
// suspected to dead, a fresh status cancels suspicion, pongs defer
// death indefinitely, scripted faults freeze the counters, and dead is
// terminal.
func TestDetectorStateMachine(t *testing.T) {
	cfg := DetectorConfig{SuspectAfter: 3, DeadAfter: 6}

	cases := []struct {
		name  string
		run   func(d *Detector) []Transition
		state map[int]FDState
		fired []Transition
	}{
		{
			name: "reporting shards stay healthy",
			run: func(d *Detector) (fired []Transition) {
				for i := 0; i < 20; i++ {
					fired = append(fired, d.Tick(nil)...)
					d.Observe(1)
					d.Observe(2)
				}
				return fired
			},
			state: map[int]FDState{1: FDHealthy, 2: FDHealthy},
		},
		{
			name: "silence promotes suspected then dead",
			run: func(d *Detector) (fired []Transition) {
				for i := 0; i < 10; i++ {
					fired = append(fired, d.Tick(nil)...)
					d.Observe(2) // shard 1 goes silent, shard 2 keeps reporting
				}
				return fired
			},
			state: map[int]FDState{1: FDDead, 2: FDHealthy},
			fired: []Transition{
				{Shard: 1, From: FDHealthy, To: FDSuspected},
				{Shard: 1, From: FDSuspected, To: FDDead},
			},
		},
		{
			name: "recovery cancels suspicion",
			run: func(d *Detector) []Transition {
				fired := drive(d, 4) // past SuspectAfter, short of DeadAfter
				tr := d.Observe(1)   // the merely-slow worker reports again
				if tr == nil || tr.From != FDSuspected || tr.To != FDHealthy {
					t.Fatalf("recovery transition = %+v", tr)
				}
				d.Observe(2)
				return fired
			},
			state: map[int]FDState{1: FDHealthy, 2: FDHealthy},
			fired: []Transition{
				{Shard: 1, From: FDHealthy, To: FDSuspected},
				{Shard: 2, From: FDHealthy, To: FDSuspected},
			},
		},
		{
			name: "pong defers death indefinitely",
			run: func(d *Detector) (fired []Transition) {
				for i := 0; i < 40; i++ {
					fired = append(fired, d.Tick(nil)...)
					d.Pong(1) // hung run loop: the link still answers pings
					d.Observe(2)
				}
				return fired
			},
			state: map[int]FDState{1: FDSuspected, 2: FDHealthy},
			fired: []Transition{{Shard: 1, From: FDHealthy, To: FDSuspected}},
		},
		{
			name: "excused shards never advance",
			run: func(d *Detector) (fired []Transition) {
				for i := 0; i < 40; i++ {
					fired = append(fired, d.Tick(func(int) bool { return true })...)
				}
				return fired
			},
			state: map[int]FDState{1: FDHealthy, 2: FDHealthy},
		},
		{
			name: "dead is terminal",
			run: func(d *Detector) []Transition {
				fired := drive(d, 10)
				d.Observe(1) // a late status cannot revive the dead
				d.Pong(1)
				return append(fired, drive(d, 10)...)
			},
			state: map[int]FDState{1: FDDead, 2: FDDead},
			fired: []Transition{
				{Shard: 1, From: FDHealthy, To: FDSuspected},
				{Shard: 2, From: FDHealthy, To: FDSuspected},
				{Shard: 1, From: FDSuspected, To: FDDead},
				{Shard: 2, From: FDSuspected, To: FDDead},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDetector(cfg, []int{1, 2})
			// Burn the startup grace (rows start DeadAfter below zero) so
			// every case begins from a freshly-observed healthy row.
			d.Observe(1)
			d.Observe(2)
			fired := tc.run(d)
			for shard, want := range tc.state {
				if got := d.State(shard); got != want {
					t.Errorf("shard %d: state %v, want %v", shard, got, want)
				}
			}
			if tc.fired != nil {
				if len(fired) != len(tc.fired) {
					t.Fatalf("fired %+v, want %+v", fired, tc.fired)
				}
				for i := range tc.fired {
					if fired[i] != tc.fired[i] {
						t.Errorf("transition %d: %+v, want %+v", i, fired[i], tc.fired[i])
					}
				}
			} else if len(fired) != 0 {
				t.Errorf("unexpected promotions: %+v", fired)
			}
		})
	}
}

// TestDetectorStartupGrace checks that a shard that has never reported
// is given a full DeadAfter allowance below zero before suspicion can
// begin — a slow first status is not a crash.
func TestDetectorStartupGrace(t *testing.T) {
	d := NewDetector(DetectorConfig{SuspectAfter: 3, DeadAfter: 6}, []int{1})
	// Without any Observe, suspicion needs DeadAfter + SuspectAfter ticks.
	if fired := drive(d, 8); len(fired) != 0 {
		t.Fatalf("promotions during the startup grace: %v", fired)
	}
	if fired := drive(d, 1); len(fired) != 1 || fired[0].To != FDSuspected {
		t.Fatalf("expected suspicion right after the grace, got %v", fired)
	}
	if got := d.Suspected(); len(got) != 1 || got[0] != 1 {
		t.Errorf("Suspected() = %v, want [1]", got)
	}
}

// TestDetectorClampsThresholds checks the DeadAfter > SuspectAfter
// clamp and the zero-value defaults, on both the detector and the
// coordinator Tuning that feeds it.
func TestDetectorClampsThresholds(t *testing.T) {
	d := NewDetector(DetectorConfig{SuspectAfter: 5, DeadAfter: 2}, []int{1})
	if d.cfg.DeadAfter <= d.cfg.SuspectAfter {
		t.Fatalf("DeadAfter %d not clamped above SuspectAfter %d", d.cfg.DeadAfter, d.cfg.SuspectAfter)
	}
	d = NewDetector(DetectorConfig{}, []int{1})
	if d.cfg.SuspectAfter != DefaultSuspectAfter || d.cfg.DeadAfter != DefaultDeadAfter {
		t.Fatalf("zero config got %+v, want defaults %d/%d", d.cfg, DefaultSuspectAfter, DefaultDeadAfter)
	}
	tn := Tuning{}.withDefaults()
	if tn.SuspectAfter != DefaultSuspectAfter || tn.DeadAfter != DefaultDeadAfter {
		t.Fatalf("zero Tuning got %d/%d, want defaults %d/%d",
			tn.SuspectAfter, tn.DeadAfter, DefaultSuspectAfter, DefaultDeadAfter)
	}
	if tn.ReportTimeout != defaultReportTimeout {
		t.Fatalf("zero Tuning timeouts got %+v", tn)
	}
}
