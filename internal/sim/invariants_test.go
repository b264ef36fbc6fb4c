package sim

import (
	"strings"
	"testing"

	"gossipstream/internal/netmodel"
)

// invariantConfig builds the stress configuration the checker is
// exercised against: the full event alphabet over the sub-tick netmodel
// transport (latency storm, loss burst, partition, heal, demote), plus
// churn — every conservation bucket of the ledger is populated.
func invariantConfig(t *testing.T) Config {
	t.Helper()
	g := testTopology(t, 180, 33)
	cfg := quickConfig(g, Fast)
	cfg.TrackRatios = true
	cfg.Churn = &ChurnConfig{LeaveFraction: 0.02, JoinFraction: 0.02}
	cfg.Net = &netmodel.Config{PingMS: testPings(180), DefaultPingMS: 120, JitterMS: 400, Loss: 0.05}
	cfg.Script = &Script{Events: []Event{
		SwitchAt(25, -1),
		LatencyShiftAt(35, 12),
		PartitionAt(45, 0.4),
		LossBurstAt(55, 15, 0.3),
		HealAt(75),
		LatencyShiftAt(80, 1),
		SwitchAt(95, -1),
		MeasureAt(110, 20),
		DemoteAt(120, -1),
		SwitchAt(135, -1),
	}, Duration: 170}
	return cfg
}

func runFor(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckInvariantsClean runs the checker against healthy runs across
// the configuration space: no transport, the netmodel transport under
// stress, and a lossless transport (where the zero-loss rules bite).
func TestCheckInvariantsClean(t *testing.T) {
	t.Run("no-net", func(t *testing.T) {
		g := testTopology(t, 120, 7)
		cfg := quickConfig(g, Fast)
		res := runFor(t, cfg)
		if res.Audit != nil {
			t.Fatal("transport ledger on a run without Config.Net")
		}
		if err := CheckInvariants(cfg, res); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("subtick", func(t *testing.T) {
		cfg := invariantConfig(t)
		res := runFor(t, cfg)
		if res.Audit == nil {
			t.Fatal("netmodel run produced no transport ledger")
		}
		if res.Audit.Injected == 0 || res.Audit.Delivered == 0 {
			t.Fatalf("ledger never saw traffic: %+v", res.Audit)
		}
		if res.Audit.Lost == 0 || res.Audit.Severed == 0 {
			t.Fatalf("stress run should populate every drop bucket: %+v", res.Audit)
		}
		if err := CheckInvariants(cfg, res); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("lossless", func(t *testing.T) {
		g := testTopology(t, 150, 9)
		cfg := quickConfig(g, Fast)
		cfg.Net = &netmodel.Config{PingMS: testPings(150), DefaultPingMS: 120, JitterMS: 200}
		cfg.Script = &Script{Events: []Event{
			SwitchAt(25, -1),
			SwitchAt(70, -1),
			MeasureAt(100, 20),
		}, Duration: 140}
		res := runFor(t, cfg)
		if res.Audit == nil || res.Audit.Delivered == 0 {
			t.Fatalf("lossless run saw no deliveries: %+v", res.Audit)
		}
		if res.Audit.Lost != 0 || res.Audit.Severed != 0 {
			t.Fatalf("drops on a lossless, unpartitioned run: %+v", res.Audit)
		}
		if err := CheckInvariants(cfg, res); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckInvariantsCatches corrupts one field of a healthy Result per
// case and asserts the checker names the violation. Each corruption is
// undone afterwards, and the result must audit clean again — proving the
// failure came from the injected damage, not a leftover.
func TestCheckInvariantsCatches(t *testing.T) {
	cfg := invariantConfig(t)
	res := runFor(t, cfg)
	if err := CheckInvariants(cfg, res); err != nil {
		t.Fatal(err)
	}
	w0 := res.Windows[0]
	var savedDelay float64
	// The model bound of invariantConfig, in seconds: the ×12 latency
	// storm over the slowest ping of testPings (20+35·12 ms) plus the
	// jitter amplitude.
	const delayBound = (12*(20+35*12) + 400) / 1000.0
	cases := []struct {
		name    string
		want    string
		corrupt func()
		restore func()
	}{
		{
			name:    "negative-counter",
			want:    "negative NetDelivered",
			corrupt: func() { w0.NetDelivered = -(w0.NetDelivered + 1) },
			restore: func() { w0.NetDelivered = -w0.NetDelivered - 1 },
		},
		{
			name:    "cohort-overflow",
			want:    "exceeds population",
			corrupt: func() { w0.Cohort += w0.Nodes + 1 },
			restore: func() { w0.Cohort -= w0.Nodes + 1 },
		},
		{
			name:    "broken-conservation",
			want:    "does not conserve",
			corrupt: func() { res.Audit.Delivered++ },
			restore: func() { res.Audit.Delivered-- },
		},
		{
			name:    "window-exceeds-ledger",
			want:    "run total",
			corrupt: func() { w0.NetDelivered += res.Audit.Delivered },
			restore: func() { w0.NetDelivered -= res.Audit.Delivered },
		},
		{
			name:    "delay-over-bound",
			want:    "above the model bound",
			corrupt: func() { savedDelay, w0.NetDelaySeconds = w0.NetDelaySeconds, 1e9 },
			restore: func() { w0.NetDelaySeconds = savedDelay },
		},
		{
			// Half a period over the bound: legal while the bound carried
			// one period of flooring slack, a violation without it.
			name: "delay-within-a-period-of-bound",
			want: "above the model bound",
			corrupt: func() {
				savedDelay = w0.NetDelaySeconds
				w0.NetDelaySeconds = (delayBound + Tau/2) * float64(w0.NetDelivered)
			},
			restore: func() { w0.NetDelaySeconds = savedDelay },
		},
		{
			name:    "missing-ledger",
			want:    "without a transport ledger",
			corrupt: func() { res.Audit = nil },
			restore: func() {},
		},
	}
	audit := res.Audit
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.corrupt()
			err := CheckInvariants(cfg, res)
			if err == nil {
				t.Fatalf("checker passed corrupted result")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			res.Audit = audit
			tc.restore()
			if err := CheckInvariants(cfg, res); err != nil {
				t.Fatalf("restore left damage: %v", err)
			}
		})
	}

	// A lossless run must not report losses or re-requests: corrupt a
	// clean zero-loss result with a fake re-request count.
	t.Run("fake-rerequests-lossless", func(t *testing.T) {
		g := testTopology(t, 150, 9)
		cfg := quickConfig(g, Fast)
		cfg.Net = &netmodel.Config{PingMS: testPings(150), DefaultPingMS: 120}
		res := runFor(t, cfg)
		if err := CheckInvariants(cfg, res); err != nil {
			t.Fatal(err)
		}
		res.Windows[0].NetReRequests = 5
		err := CheckInvariants(cfg, res)
		if err == nil || !strings.Contains(err.Error(), "re-request") {
			t.Fatalf("fake re-requests on lossless run not caught: %v", err)
		}
	})
}
