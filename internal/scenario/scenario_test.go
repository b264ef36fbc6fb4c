package scenario

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gossipstream/internal/sim"
)

// TestFormatRoundTrip is the text format's compatibility contract: every
// library scenario survives Write → Parse unchanged.
func TestFormatRoundTrip(t *testing.T) {
	for _, sc := range Library() {
		t.Run(sc.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := sc.Write(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Parse(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("parse back:\n%s\n%v", buf.String(), err)
			}
			if !reflect.DeepEqual(sc, back) {
				t.Errorf("round trip diverged:\n%+v\nvs\n%+v\ntext:\n%s", sc, back, buf.String())
			}
		})
	}
}

// TestParseFull exercises every directive and event verb of the grammar,
// including comments, blank lines and flag options.
func TestParseFull(t *testing.T) {
	text := `
# a kitchen-sink scenario
scenario kitchen-sink
desc every directive once
nodes 200
m 6
seed 42
first 9
spread 10     # trailing comment
horizon 80
duration 500
churn 0.01 0.02
perlink
qs 25
net loss=0.05 jitter=150 ping=80

at 20 switch to=3 horizon=90
at 60 switch
at 100 switch failure
at 30 crowd count=50 backlog=120
at 45 churnburst for=15 leave=0.1 join=0.05
at 70 bandwidth factor=0.5
at 120 measure for=25
at 55 latency factor=20
at 65 lossburst for=30 p=0.25
at 75 partition frac=0.5
at 80 partition frac=0.4 by=ping
at 95 heal
at 130 demote node=3
at 140 demote
`
	sc, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "kitchen-sink" || sc.Nodes != 200 || sc.M != 6 || sc.Seed != 42 ||
		sc.First != 9 || sc.Spread != 10 || sc.Horizon != 80 || sc.Duration != 500 ||
		sc.ChurnLeave != 0.01 || sc.ChurnJoin != 0.02 || !sc.PerLink || sc.Qs != 25 {
		t.Errorf("header misparsed: %+v", sc)
	}
	if !sc.Net || sc.NetLoss != 0.05 || sc.NetJitterMS != 150 || sc.NetPingMS != 80 {
		t.Errorf("net directive misparsed: %+v", sc)
	}
	want := []sim.Event{
		{Tick: 20, Kind: sim.EvSwitchSource, To: 3, Horizon: 90},
		{Tick: 60, Kind: sim.EvSwitchSource, To: -1},
		{Tick: 100, Kind: sim.EvSwitchSource, To: -1, Failure: true},
		sim.FlashCrowdAt(30, 50, 120),
		sim.ChurnBurstAt(45, 15, 0.1, 0.05),
		sim.BandwidthShiftAt(70, 0.5),
		sim.MeasureAt(120, 25),
		sim.LatencyShiftAt(55, 20),
		sim.LossBurstAt(65, 30, 0.25),
		sim.PartitionAt(75, 0.5),
		sim.PartitionByPingAt(80, 0.4),
		sim.HealAt(95),
		sim.DemoteAt(130, 3),
		sim.DemoteAt(140, -1),
	}
	if !reflect.DeepEqual(sc.Events, want) {
		t.Errorf("events misparsed:\n%+v\nwant\n%+v", sc.Events, want)
	}
	// And it round-trips.
	var buf bytes.Buffer
	if err := sc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Error("kitchen-sink round trip diverged")
	}
}

// TestParseErrors rejects malformed input with the offending line.
func TestParseErrors(t *testing.T) {
	bad := []string{
		"scenario ok\nnodes 100\nseed 1\nbogus 3\nat 10 switch",
		"scenario ok\nnodes 100\nseed 1\nat x switch",
		"scenario ok\nnodes 100\nseed 1\nat 10 explode",
		"scenario ok\nnodes 100\nseed 1\nat 10 switch to=abc",
		"scenario ok\nnodes 100\nseed 1\nat 10 crowd count=0",
		"scenario ok\nnodes 100\nseed 1\nat 10 switch to=3 to=4",
		"scenario ok\nnodes 100\nseed 1\nat 10 switch speed=9",
		"scenario Bad_Name\nnodes 100\nseed 1\nat 10 switch",
		"scenario ok\nnodes 1\nseed 1\nat 10 switch",
		"scenario ok\nnodes 5\nseed 1\nat 10 switch", // default M=5 needs 6 nodes
		"scenario ok\nnodes 8\nm 8\nseed 1\nat 10 switch",
		"scenario ok\nnodes 100\nseed 1\nat 10 churnburst for=10 leave=1.5",
		"scenario ok\nnodes 100\nseed 1", // no events, no duration
		// Netmodel clauses: malformed options.
		"scenario ok\nnodes 100\nseed 1\nnet\nat 10 latency factor=0",
		"scenario ok\nnodes 100\nseed 1\nnet\nat 10 latency factor=abc",
		"scenario ok\nnodes 100\nseed 1\nnet\nat 10 lossburst for=0 p=0.2",
		"scenario ok\nnodes 100\nseed 1\nnet\nat 10 lossburst for=10 p=1.5",
		"scenario ok\nnodes 100\nseed 1\nnet\nat 10 partition frac=0",
		"scenario ok\nnodes 100\nseed 1\nnet\nat 10 partition frac=1.2",
		"scenario ok\nnodes 100\nseed 1\nnet\nat 10 partition frac=0.5 side=3",
		"scenario ok\nnodes 100\nseed 1\nnet\nat 10 heal now",
		"scenario ok\nnodes 100\nseed 1\nat 10 demote node=abc",
		"scenario ok\nnodes 100\nseed 1\nat 10 demote node=500",
		// Net directive: bad options, and net events without it.
		"scenario ok\nnodes 100\nseed 1\nnet loss=2\nat 10 switch",
		"scenario ok\nnodes 100\nseed 1\nnet jitter=-5\nat 10 switch",
		"scenario ok\nnodes 100\nseed 1\nnet speed=56\nat 10 switch",
		"scenario ok\nnodes 100\nseed 1\nnet loss\nat 10 switch",
		"scenario ok\nnodes 100\nseed 1\nnet subtick=1\nat 10 switch",
		"scenario ok\nnodes 100\nseed 1\nnet\nat 10 partition frac=0.5 by=hash",
		"scenario ok\nnodes 100\nseed 1\nnet\nat 10 partition frac=0.5 by",
		"scenario ok\nnodes 100\nseed 1\nat 10 partition frac=0.5",
		"scenario ok\nnodes 100\nseed 1\nat 10 heal",
		"scenario ok\nnodes 100\nseed 1\nat 10 lossburst for=10 p=0.2",
		"scenario ok\nnodes 100\nseed 1\nat 10 latency factor=5",
		// Qs above the buffer capacity B = 600: no node could ever prepare.
		"scenario ok\nnodes 100\nseed 1\nqs 601\nat 10 switch",
		// The first source out of range, baseline churn out of [0,1), and
		// net parameters out of range.
		"scenario ok\nnodes 100\nseed 1\nfirst 100\nat 10 switch",
		"scenario ok\nnodes 100\nseed 1\nchurn 1.5\nat 10 switch",
		"scenario ok\nnodes 100\nseed 1\nnet loss=1\nat 10 switch",
		"scenario ok\nnodes 100\nseed 1\nnet loss=-0.1\nat 10 switch",
		"scenario ok\nnodes 100\nseed 1\nnet ping=-5\nat 10 switch",
	}
	for _, text := range bad {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("accepted malformed scenario:\n%s", text)
		}
	}
	if _, err := Parse(strings.NewReader("scenario ok\nnodes 100\nseed 1\nqs 600\nat 10 switch")); err != nil {
		t.Errorf("rejected qs 600 (= B): %v", err)
	}
	// A negative first source is an error naming first, not an auto-pick.
	if _, err := Parse(strings.NewReader("scenario ok\nnodes 100\nseed 1\nfirst -3\nat 10 switch")); err == nil || !strings.Contains(err.Error(), "first") {
		t.Errorf("first -3: err = %v, want one naming first", err)
	}
	if _, err := Parse(strings.NewReader("scenario ok\nnodes 100\nseed 1\nfirst 99\nat 10 switch")); err != nil {
		t.Errorf("rejected first 99 of 100 nodes: %v", err)
	}
	// A negative parameter is an error naming its directive and value.
	for _, tc := range []struct{ line, want string }{
		{"m -1", "m -1"},
		{"spread -2", "spread -2"},
		{"horizon -3", "horizon -3"},
		{"duration -4", "duration -4"},
		{"qs -5", "qs -5"},
		{"net jitter=-6", "jitter -6"},
		{"net ping=-7", "ping -7"},
	} {
		text := "scenario ok\nnodes 100\nseed 1\n" + tc.line + "\nat 10 switch"
		if _, err := Parse(strings.NewReader(text)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.line, err, tc.want)
		}
	}
	// Scaling below the neighbor target is the same error at compile
	// time, not an overlay panic.
	if _, err := PaperSingleSwitch().Scaled(4).Config(sim.Fast); err == nil {
		t.Error("4-node paper scenario compiled")
	}
}

// TestSerialHandoffDeterminism is the multi-switch acceptance criterion:
// three serial switches produce three switch-metrics blocks, and the same
// seed yields a bit-identical Result at Workers ∈ {0, 1, 8}.
func TestSerialHandoffDeterminism(t *testing.T) {
	run := func(workers int) *sim.Result {
		cfg, err := SerialHandoffChain().Scaled(180).Config(sim.Fast)
		if err != nil {
			t.Fatal(err)
		}
		cfg.TrackRatios = true
		cfg.Workers = workers
		return mustRun(t, cfg)
	}
	serial := run(0)
	if len(serial.Windows) != 3 {
		t.Fatalf("windows = %d, want 3 (one per handoff)", len(serial.Windows))
	}
	for i, w := range serial.Windows {
		if w.Kind != "switch" || len(w.PrepareS2Times) == 0 {
			t.Errorf("window %d unusable: %+v", i, w)
		}
	}
	for _, workers := range []int{1, 8} {
		if got := run(workers); !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d diverged from the one-worker run", workers)
		}
	}
}

// TestNetScenarioDeterminism is the netmodel acceptance criterion at the
// scenario level: with the transport enabled the same seed yields a
// bit-identical Result at Workers ∈ {0, 1, 8} — including the in-flight
// messages severed by the partition (the scenario's jitter keeps grants
// airborne across the split instant). The bundled transatlantic-split
// splits by ping, so this is also the ping-clustered partition's
// worker-count invariance pin the CI netmodel job exercises.
func TestNetScenarioDeterminism(t *testing.T) {
	run := func(workers int) (*sim.Result, sim.Config) {
		cfg, err := TransatlanticSplit().Scaled(150).Config(sim.Fast)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		return mustRun(t, cfg), cfg
	}
	serial, cfg := run(0) // the reference: the default, one worker
	if err := sim.CheckInvariants(cfg, serial); err != nil {
		t.Errorf("run invariants violated: %v", err)
	}
	if len(serial.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(serial.Windows))
	}
	if serial.FirstSwitch().NetDelivered == 0 {
		t.Fatal("transport delivered nothing")
	}
	// Sub-tick delay metrics resolve below whole periods: with 1.5 s
	// uniform jitter the summed delay cannot sit on a period boundary.
	if d := serial.FirstSwitch().NetDelaySeconds; d == math.Trunc(d) {
		t.Errorf("NetDelaySeconds = %v looks tick-quantized", d)
	}
	for _, workers := range []int{1, 8} {
		if got, _ := run(workers); !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d diverged from the one-worker run", workers)
		}
	}
}

// TestLibrarySmoke runs every bundled scenario at small scale: parse its
// canonical text, compile, run, and demand non-empty per-window metrics.
// This is the CI rot guard for the scenario files (cmd/scenario -smoke
// wraps the same check for the workflow).
func TestLibrarySmoke(t *testing.T) {
	for _, sc := range Library() {
		t.Run(sc.Name, func(t *testing.T) {
			small := sc.Scaled(120)
			// Through the text format, so the bundled definitions and the
			// parser cannot drift apart.
			var buf bytes.Buffer
			if err := small.Write(&buf); err != nil {
				t.Fatal(err)
			}
			parsed, err := Parse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			// Through Config rather than Run, so the run-invariant checker
			// can audit the result against the exact configuration.
			cfg, err := parsed.Config(sim.Fast)
			if err != nil {
				t.Fatal(err)
			}
			res := mustRun(t, cfg)
			if err := sim.CheckInvariants(cfg, res); err != nil {
				t.Errorf("run invariants violated: %v", err)
			}
			if len(res.Windows) == 0 {
				t.Fatal("no measurement windows")
			}
			for i, w := range res.Windows {
				if w.Cohort == 0 {
					t.Errorf("window %d: empty cohort", i)
				}
				if w.MeasuredTicks == 0 {
					t.Errorf("window %d: zero-length window", i)
				}
				if w.Kind == "switch" && len(w.PrepareS2Times) == 0 {
					t.Errorf("window %d: nobody prepared the new stream", i)
				}
				if w.PlayedSegments == 0 {
					t.Errorf("window %d: no playback recorded", i)
				}
			}
		})
	}
}

// TestScaled rescales flash crowds and clamps out-of-range pins.
func TestScaled(t *testing.T) {
	sc := FlashCrowdJoin() // 300 nodes, crowd of 150
	small := sc.Scaled(100)
	if small.Nodes != 100 {
		t.Fatalf("nodes = %d", small.Nodes)
	}
	for _, ev := range small.Events {
		if ev.Kind == sim.EvFlashCrowd && ev.Count != 50 {
			t.Errorf("crowd not rescaled: %d", ev.Count)
		}
	}
	chain := SerialHandoffChain().Scaled(100) // pins 41, 97, 155
	if chain.Events[2].To != -1 {
		t.Errorf("out-of-range pin not dropped: %d", chain.Events[2].To)
	}
	if chain.Events[0].To != 41 {
		t.Errorf("in-range pin lost: %d", chain.Events[0].To)
	}
	// The original is untouched.
	if sc.Events[0].Count != 150 {
		t.Error("Scaled mutated its receiver")
	}
}

// TestNetEventsRequireNet pins the validation: latency/loss/partition
// events without the net directive are a scenario error, and a demote
// needs no transport.
func TestNetEventsRequireNet(t *testing.T) {
	for _, ev := range []sim.Event{
		sim.LatencyShiftAt(10, 5),
		sim.LossBurstAt(10, 5, 0.3),
		sim.PartitionAt(10, 0.5),
		sim.HealAt(10),
	} {
		sc := &Scenario{Name: "no-net", Nodes: 50, Seed: 1, Duration: 20, Events: []sim.Event{ev}}
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "net directive") {
			t.Errorf("%s event without net: err = %v, want one naming the net directive", ev.Kind, err)
		}
	}
	sc := &Scenario{Name: "no-net", Nodes: 50, Seed: 1, Duration: 40,
		Events: []sim.Event{sim.SwitchAt(10, -1), sim.DemoteAt(20, -1)}}
	if err := sc.Validate(); err != nil {
		t.Errorf("demote without net rejected: %v", err)
	}
}

// TestConfigResolvesDefaults pins the one place a run's defaults live:
// a scenario that leaves qs, horizon, first, spread and the scheduler
// unset compiles to the paper's 50, 150, the graph's minimum-degree node,
// a simultaneous start and the fast switch, and explicit values pass
// through unchanged.
func TestConfigResolvesDefaults(t *testing.T) {
	sc := &Scenario{Name: "defaults", Nodes: 60, Seed: 3, Events: []sim.Event{sim.SwitchAt(20, -1)}}
	cfg, err := sc.Config(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Qs != 50 || cfg.HorizonTicks != 150 || cfg.FirstSource != cfg.Graph.MinDegreeNode() || cfg.JoinSpreadTicks != 0 {
		t.Errorf("unset parameters compiled to qs %d horizon %d first %d spread %d, want 50 150 %d 0",
			cfg.Qs, cfg.HorizonTicks, cfg.FirstSource, cfg.JoinSpreadTicks, cfg.Graph.MinDegreeNode())
	}
	if name := cfg.NewAlgorithm().Name(); name != sim.Fast().Name() {
		t.Errorf("nil factory compiled to %q, want %q", name, sim.Fast().Name())
	}
	set := *sc
	set.Qs, set.Horizon, set.First, set.Spread = 30, 90, 7, 12
	cfg, err = set.Config(sim.Normal)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Qs != 30 || cfg.HorizonTicks != 90 || cfg.FirstSource != 7 || cfg.JoinSpreadTicks != 12 {
		t.Errorf("explicit parameters compiled to qs %d horizon %d first %d spread %d, want 30 90 7 12",
			cfg.Qs, cfg.HorizonTicks, cfg.FirstSource, cfg.JoinSpreadTicks)
	}
	if name := cfg.NewAlgorithm().Name(); name != sim.Normal().Name() {
		t.Errorf("factory compiled to %q, want %q", name, sim.Normal().Name())
	}
}

func mustRun(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSelect pins the CLIs' one scenario selection: a file or a bundled
// name, never both, never neither.
func TestSelect(t *testing.T) {
	file := filepath.Join(t.TempDir(), "crowd.scn")
	var buf bytes.Buffer
	if err := FlashCrowdJoin().Scaled(30).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what, file, name string
		want             string // the selected scenario's name, "" for an error
		err              string
	}{
		{"file", file, "", FlashCrowdJoin().Name, ""},
		{"name", "", "paper-single-switch", "paper-single-switch", ""},
		{"both", file, "paper-single-switch", "", "mutually exclusive"},
		{"neither", "", "", "", "need -f or -name"},
		{"unknown name", "", "no-such-scenario", "", `unknown scenario "no-such-scenario"`},
	} {
		sc, err := Select(c.file, c.name)
		switch {
		case c.want != "" && (err != nil || sc.Name != c.want):
			t.Errorf("%s: got %v, %v; want scenario %s", c.what, sc, err, c.want)
		case c.want == "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: err = %v, want one containing %q", c.what, err, c.err)
		}
	}
}
