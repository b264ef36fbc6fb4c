package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The smoke test runs every workload at toy scale and pins the
// benchmark's surface against BENCHMARK.json. It asserts nothing about
// the wall clock: a live run that the host could not pace is reported as
// inconclusive, never as a failure.

func TestSpecListsTheWorkloads(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the program has %d", specFile, len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s says %q, the program %q", i, specFile, w.Name, workloads[i].name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Errorf("%s has no setup_s metric in seconds, lower is better", specFile)
	}
}

func TestWorkloadsAtToyScale(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, digest, err := measure(spec, w.name, 3, 1, traced, toyScale, dir)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct {
					if w.deterministic {
						t.Fatalf("simulator workload ran incorrectly (see stderr)")
					}
					t.Skip("inconclusive: the live run did not pass its checks on this host (see stderr)")
				}
				if w.deterministic == (digest == "-") {
					t.Errorf("result digest %q on a workload with deterministic=%t", digest, w.deterministic)
				}
				want := spec.metrics(traced)
				if len(rep.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", m.Name, got.Value)
					case !traced && got.Value == 0:
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
				if rep.Attempted < 1 {
					t.Errorf("attempted = %d", rep.Attempted)
				}
				if traced {
					checkTraceFile(t, filepath.Join(dir, w.name+".trace.json"), w.name)
				}
			})
		}
	}
}

// checkTraceFile re-reads a written trace: every span names its
// workload and a parent that exists and was opened before it.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Dur  int64  `json:"dur"`
		Args struct {
			ID       int    `json:"id"`
			Parent   int    `json:"parent"`
			Workload string `json:"workload"`
			SelfUS   int64  `json:"self_us"`
		} `json:"args"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) < 10 {
		t.Fatalf("only %d spans recorded", len(events))
	}
	for i, ev := range events {
		if ev.Args.ID != i || ev.Args.Workload != workload {
			t.Errorf("span %d (%s): id %d workload %q", i, ev.Name, ev.Args.ID, ev.Args.Workload)
		}
		if p := ev.Args.Parent; p >= i || p < -1 {
			t.Errorf("span %d (%s): parent %d does not resolve", i, ev.Name, p)
		}
		if ev.Args.SelfUS > ev.Dur+1 {
			t.Errorf("span %d (%s): self time %dus exceeds its duration %dus", i, ev.Name, ev.Args.SelfUS, ev.Dur)
		}
	}
}

func TestLayerInputsAreStablePerSeed(t *testing.T) {
	a, b, c := newLayerInputs(5).digest(), newLayerInputs(5).digest(), newLayerInputs(6).digest()
	if a != b {
		t.Errorf("seed 5 generated two different inputs: %s, %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 generated the same inputs")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	s := &spans{all: []span{
		{name: "root", parent: -1, start: at(0), end: at(100)},
		{name: "a", parent: 0, start: at(10), end: at(40)},
		{name: "b", parent: 0, start: at(30), end: at(60)}, // overlaps a by 10 ms
		{name: "a1", parent: 1, start: at(10), end: at(20)},
	}}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{50, 20, 30, 10}
	for i, got := range s.selfTimes() {
		if got != want[i]*time.Millisecond {
			t.Errorf("span %s: self time %v, want %v", s.all[i].name, got, want[i]*time.Millisecond)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "continuity", Better: "higher", Bound: 0.10}
	sum := func(vs ...float64) summary { return summarize("", vs) }
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b summary
		want string
	}{
		{"same", lower, sum(10, 10.1, 10.2), sum(10.1, 10, 10.2), verdictWithin},
		{"slower beyond the bound", lower, sum(10, 10.1, 10.2), sum(12, 12.1, 12.2), verdictWorse},
		{"faster beyond the spread", lower, sum(10, 10.1, 10.2), sum(9, 9.1, 9.2), verdictImproved},
		{"faster but inside the parent's spread", lower, sum(10, 10.4, 10.8), sum(10.3, 10.2, 10.1), verdictWithin},
		{"too noisy to tell", lower, sum(8, 10, 13), sum(9, 11, 12), verdictUnresolved},
		{"noisy but every run better", lower, sum(8, 10, 13), sum(5, 6, 7), verdictImproved},
		{"higher is better, lower is worse", higher, sum(0.8, 0.81, 0.82), sum(0.6, 0.61, 0.62), verdictWorse},
		{"higher is better, higher improves", higher, sum(0.8, 0.81, 0.82), sum(0.9, 0.91, 0.92), verdictImproved},
	} {
		if got, _ := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
