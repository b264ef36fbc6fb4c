package scenario

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gossipstream/internal/sim"
)

// genText renders a scenario to its canonical text.
func genText(t *testing.T, sc *Scenario) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestGenerateDeterministic pins the generator's own contract: the same
// options produce byte-identical text, and the seed actually matters.
func TestGenerateDeterministic(t *testing.T) {
	a := genText(t, Generate(GenOptions{Seed: 42}))
	b := genText(t, Generate(GenOptions{Seed: 42}))
	if a != b {
		t.Fatalf("seed 42 generated two different scenarios:\n%s\nvs\n%s", a, b)
	}
	if c := genText(t, Generate(GenOptions{Seed: 43})); c == a {
		t.Fatal("seeds 42 and 43 generated the same scenario")
	}
	if sc := Generate(GenOptions{Seed: 7, Nodes: 80, Events: 6}); sc.Nodes != 80 || len(sc.Events) != 6 {
		t.Fatalf("overrides ignored: nodes=%d events=%d", sc.Nodes, len(sc.Events))
	}
	if sc := Generate(GenOptions{Seed: -3}); sc.Name != "gen-n3" {
		t.Fatalf("negative seed named %q", sc.Name)
	}
}

// genCount returns how many seeds the property driver replays: 100 by
// default (the acceptance bar), 10 under -short, or the
// GEN_SCENARIO_COUNT override (CI uses a mid-size run under -race).
func genCount() int {
	if v := os.Getenv("GEN_SCENARIO_COUNT"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	if testing.Short() {
		return 10
	}
	return 100
}

// TestGeneratedScenarioDeterminism is the property-test driver of the
// determinism contract: every generated scenario round-trips through the
// text format, replays bit-identically at 1 and 8 workers, and its
// result passes the run-invariant checker.
func TestGeneratedScenarioDeterminism(t *testing.T) {
	for seed := int64(1); seed <= int64(genCount()); seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel() // seeds are independent runs; the family is the suite's longest test
			sc := Generate(GenOptions{Seed: seed})
			text := genText(t, sc)
			parsed, err := Parse(strings.NewReader(text))
			if err != nil {
				t.Fatalf("canonical text does not parse: %v\n%s", err, text)
			}
			if !reflect.DeepEqual(parsed, sc) {
				t.Fatalf("round-trip drift:\n%+v\nvs\n%+v\n%s", parsed, sc, text)
			}
			run := func(workers int) *sim.Result {
				cfg, err := sc.Config(sim.Fast)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Workers = workers
				res := mustRun(t, cfg)
				return res
			}
			r1, r8 := run(1), run(8)
			if !reflect.DeepEqual(r1, r8) {
				t.Fatalf("workers 1 vs 8 diverged:\n%+v\nvs\n%+v\n%s", r1, r8, text)
			}
			cfg, err := sc.Config(sim.Fast)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.CheckInvariants(cfg, r1); err != nil {
				t.Fatalf("run invariants violated: %v\n%s", err, text)
			}
		})
	}
}

// TestGeneratorCoverage asserts the 100-seed family actually spans the
// event alphabet and the transport configuration space — a generator
// that silently stopped emitting some verb would hollow out the property
// test without failing it.
func TestGeneratorCoverage(t *testing.T) {
	kinds := map[sim.EventKind]int{}
	var planned, failed, byPing, uniform, withNet, withoutNet, churny int
	for seed := int64(1); seed <= 100; seed++ {
		sc := Generate(GenOptions{Seed: seed})
		if sc.Net {
			withNet++
		} else {
			withoutNet++
		}
		if sc.ChurnLeave > 0 || sc.ChurnJoin > 0 {
			churny++
		}
		for _, ev := range sc.Events {
			kinds[ev.Kind]++
			switch ev.Kind {
			case sim.EvSwitchSource:
				if ev.Failure {
					failed++
				} else {
					planned++
				}
			case sim.EvPartition:
				if ev.ByPing {
					byPing++
				} else {
					uniform++
				}
			}
		}
	}
	for _, k := range []sim.EventKind{
		sim.EvSwitchSource, sim.EvMeasureWindow, sim.EvChurnBurst,
		sim.EvFlashCrowd, sim.EvBandwidthShift, sim.EvLatencyShift,
		sim.EvLossBurst, sim.EvPartition, sim.EvHeal, sim.EvDemoteSource,
	} {
		if kinds[k] == 0 {
			t.Errorf("event kind %v never generated in 100 seeds", k)
		}
	}
	for name, n := range map[string]int{
		"planned switch": planned, "failure switch": failed,
		"uniform partition": uniform, "by=ping partition": byPing,
		"net transport": withNet, "classic substrate": withoutNet,
		"churn": churny,
	} {
		if n == 0 {
			t.Errorf("%s never generated in 100 seeds", name)
		}
	}
}
