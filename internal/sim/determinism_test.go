package sim

import (
	"reflect"
	"testing"

	"gossipstream/internal/netmodel"
)

// resultsEqual compares two Results window by window — every metric,
// the bit accounting and the optional ratio series live there — plus the
// transport ledger.
func resultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Algorithm != b.Algorithm {
		t.Errorf("%s: algorithm diverged: %q vs %q", label, a.Algorithm, b.Algorithm)
	}
	if len(a.Windows) != len(b.Windows) {
		t.Errorf("%s: window counts diverged: %d vs %d", label, len(a.Windows), len(b.Windows))
		return
	}
	for i := range a.Windows {
		if !reflect.DeepEqual(a.Windows[i], b.Windows[i]) {
			t.Errorf("%s: window %d diverged:\n%+v\nvs\n%+v", label, i, a.Windows[i], b.Windows[i])
		}
	}
	if (a.Audit == nil) != (b.Audit == nil) || (a.Audit != nil && *a.Audit != *b.Audit) {
		t.Errorf("%s: transport ledger diverged:\n%+v\nvs\n%+v", label, a.Audit, b.Audit)
	}
}

// testPings synthesizes a heterogeneous per-node ping table: varied
// sub-period delays so sub-tick arrival order differs from injection
// order, and real spread around any by-ping partition cut.
func testPings(n int) []int {
	pings := make([]int, n)
	for i := range pings {
		pings[i] = 20 + 35*(i%13)
	}
	return pings
}

// TestEngineWorkerCountInvariance is the determinism regression test of
// the sharded engine: the same Config (including seeds) run with the
// default worker count (0 → one) and with 1, 2 and 8 workers must produce
// identical Results — every event time, ratio point, and the
// controlBits/dataBits accounting.
func TestEngineWorkerCountInvariance(t *testing.T) {
	scenarios := []struct {
		name    string
		nodes   int   // 0: 180, a single shard
		workers []int // nil: 0, 1, 2 and 8; the first is the reference run
		mut     func(*Config)
	}{
		{name: "shared", mut: func(c *Config) { c.SharedOutbound = true }},
		{name: "perlink", mut: func(c *Config) { c.SharedOutbound = false }},
		{name: "shared-churn", mut: func(c *Config) {
			c.SharedOutbound = true
			c.Churn = &ChurnConfig{LeaveFraction: 0.05, JoinFraction: 0.05}
		}},
		{name: "perlink-normal-algo", mut: func(c *Config) {
			c.SharedOutbound = false
			c.NewAlgorithm = Normal
		}},
		// The scenario engine's events phase under the full event alphabet:
		// a serial handoff chain with a churn burst, a flash crowd, a
		// bandwidth shift, a plain measurement window — and a round-trip
		// handoff: the initial speaker (pinned to node 2) is demoted back
		// to listener at 120 and retakes the floor at 135. Every event
		// must be worker-count invariant.
		{name: "scripted-chain", mut: func(c *Config) {
			c.SharedOutbound = true
			c.FirstSource = 2
			c.Churn = &ChurnConfig{LeaveFraction: 0.02, JoinFraction: 0.02}
			c.Script = &Script{Events: []Event{
				SwitchAt(25, -1),
				FlashCrowdAt(35, 40, 120),
				ChurnBurstAt(45, 15, 0.08, 0.05),
				SwitchAt(70, -1),
				BandwidthShiftAt(85, 0.7),
				SwitchAt(110, 5),
				DemoteAt(120, 2),
				SwitchAt(135, 2),
				MeasureAt(160, 25),
			}, Duration: 200}
		}},
		// The sub-tick netmodel transport under stress: multi-tick flights
		// (latency storm), a loss burst, and a partition that severs
		// messages already in flight, plus churn (joiners take the default
		// ping) and a demote — the in-flight message state, its sub-tick
		// pop order and the millisecond delay accounting must all be
		// worker-count invariant.
		{name: "netmodel", mut: func(c *Config) {
			c.SharedOutbound = true
			c.Churn = &ChurnConfig{LeaveFraction: 0.02, JoinFraction: 0.02}
			c.Net = &netmodel.Config{PingMS: testPings(180), DefaultPingMS: 120, JitterMS: 400, Loss: 0.05}
			c.Script = &Script{Events: []Event{
				SwitchAt(25, -1),
				LatencyShiftAt(35, 12),
				PartitionAt(45, 0.4),
				LossBurstAt(55, 15, 0.3),
				HealAt(75),
				LatencyShiftAt(80, 1),
				SwitchAt(95, -1),
				DemoteAt(120, -1),
				SwitchAt(135, -1),
			}, Duration: 170}
		}},
		// The same stress script across three shards (N=600), one worker
		// against eight, with the partition latency-clustered instead of
		// uniform: with a netmodel and a shared outbound budget the one
		// commit path defers both its supplier refunds and its message
		// sends to serial passes, and here most of them cross a shard
		// boundary. The heterogeneous ping table matters — it puts real
		// nodes on both sides of the by-ping quantile cut (an empty table
		// would degenerate the split to the uniform hash).
		{name: "netmodel-three-shards", nodes: 600, workers: []int{1, 8}, mut: func(c *Config) {
			c.SharedOutbound = true
			c.Churn = &ChurnConfig{LeaveFraction: 0.02, JoinFraction: 0.02}
			c.Net = &netmodel.Config{PingMS: testPings(600), DefaultPingMS: 120, JitterMS: 400, Loss: 0.05}
			c.Script = &Script{Events: []Event{
				SwitchAt(25, -1),
				LatencyShiftAt(35, 12),
				PartitionByPingAt(45, 0.4),
				LossBurstAt(55, 15, 0.3),
				HealAt(75),
				LatencyShiftAt(80, 1),
				SwitchAt(95, -1),
				DemoteAt(120, -1),
				SwitchAt(135, -1),
			}, Duration: 170}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			nodes, counts := sc.nodes, sc.workers
			if nodes == 0 {
				nodes = 180
			}
			if counts == nil {
				counts = []int{0, 1, 2, 8}
			}
			run := func(workers int) (*Result, Config) {
				g := testTopology(t, nodes, 33)
				cfg := quickConfig(g, Fast)
				cfg.TrackRatios = true
				sc.mut(&cfg)
				cfg.Workers = workers
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, cfg
			}
			ref, cfg := run(counts[0])
			if err := CheckInvariants(cfg, ref); err != nil {
				t.Errorf("%s: run invariants violated: %v", sc.name, err)
			}
			for _, w := range counts[1:] {
				res, _ := run(w)
				resultsEqual(t, sc.name, ref, res)
			}
		})
	}
}
