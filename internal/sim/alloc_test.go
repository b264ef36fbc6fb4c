package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gossipstream/internal/obs"
	"gossipstream/internal/overlay"
	"gossipstream/internal/trace"
)

// allocSim builds the engine's reference workload (paper topology,
// Fast algorithm, shared outbound) sized so the switch event stays far
// beyond the ticks a test drives by hand. The topology mirrors
// scenario.Scenario.Config (which this package cannot import — cycle):
// a synthesized crawl trace augmented to min degree M=5.
func allocSim(t testing.TB, n int) *Sim { return allocSimObs(t, n, nil) }

// allocSimObs is allocSim with an observability bundle attached — the
// alloc-budget tests run it both ways to pin that instrumentation stays
// off the allocation path.
func allocSimObs(t testing.TB, n int, o *obs.Obs) *Sim {
	t.Helper()
	seed := int64(20080101) + int64(n)*1_000_003
	tr := trace.Synthesize(fmt.Sprintf("synth-%d-0", n), n, 1, seed)
	g, err := tr.Graph()
	if err != nil {
		t.Fatal(err)
	}
	overlay.AugmentMinDegree(g, 5, rand.New(rand.NewSource(seed^0xa06)))
	s, err := New(singleSwitch(Config{
		Graph: g, Seed: 1, NewAlgorithm: Fast, Qs: 50,
		FirstSource: g.MinDegreeNode(), SharedOutbound: true,
		HorizonTicks: 1, JoinSpreadTicks: 10,
		Workers: 1, Obs: o,
	}, 10_000, -1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tick advances the simulation by one scheduling period, keeping the
// tick counter in sync the way Run's loop does.
func tick(s *Sim) {
	s.step()
	s.tick++
}

// TestTickAllocations pins the steady-state allocation cost of one
// scheduling period at N=1000 with one worker. The hot path runs
// on reused scratch (per-shard arenas, pooled snapshots, presized
// buffers), so once every node has joined and per-node slices have
// grown to their working size, a tick should allocate almost nothing.
// The budget is ~10x below the pre-optimization cost (5271 allocs/tick
// at N=1000, BENCH_engine.json entry 0) and far above the ~25 measured
// at steady state, so real regressions trip it while occasional slice
// growth does not.
func TestTickAllocations(t *testing.T) {
	const budget = 500.0

	s := allocSim(t, 1000)
	for s.tick < 80 {
		tick(s)
	}
	got := testing.AllocsPerRun(100, func() { tick(s) })
	if got > budget {
		t.Fatalf("steady-state tick allocations = %.1f, budget %.0f — the hot path regressed "+
			"(sim.allocs_per_tick in a traced benchmark run localizes it)", got, budget)
	}
	t.Logf("steady-state allocations per tick at N=1000: %.1f (budget %.0f)", got, budget)
}

// TestTickAllocationsWithObs holds the same steady-state budget with a
// live metrics registry attached: metric handles are registered once at
// setup, so per-tick updates are pure atomics and instrumentation adds
// zero allocations to the hot path.
func TestTickAllocationsWithObs(t *testing.T) {
	const budget = 500.0

	o := &obs.Obs{Reg: obs.NewRegistry()}
	s := allocSimObs(t, 1000, o)
	for s.tick < 80 {
		tick(s)
	}
	got := testing.AllocsPerRun(100, func() { tick(s) })
	if got > budget {
		t.Fatalf("steady-state tick allocations with live registry = %.1f, budget %.0f — "+
			"instrumentation leaked onto the allocation path", got, budget)
	}
	if v := o.Reg.Counter("gossip_ticks_total", "").Value(); v == 0 {
		t.Fatal("registry attached but gossip_ticks_total never advanced")
	}
	t.Logf("steady-state allocations per tick at N=1000 with live registry: %.1f (budget %.0f)", got, budget)
}

// TestTickAllocations100k is the scale smoke: the same pinned hot path
// must hold a per-tick allocation budget of 0.2 per node — steady-state
// allocations come from occasional slice growth, not per-node work, so
// any per-node or per-message allocation blows through it. The budget is
// pinned at N=25000 on every run (~3 s; the count is deterministic, and
// 25000 is a size whose slices do not happen to double inside the
// measured ticks, as N=20000's do); N=100000 itself (building and
// warming a 100k-node overlay takes tens of seconds) runs only when -run
// names it, as the alloc-budget CI job does:
//
//	go test -run 'TestTickAllocations100k/N=100000' ./internal/sim
func TestTickAllocations100k(t *testing.T) {
	const perNode = 0.2
	for _, n := range []int{25_000, 100_000} {
		name := fmt.Sprintf("N=%d", n)
		t.Run(name, func(t *testing.T) {
			if n == 100_000 && !strings.Contains(flag.Lookup("test.run").Value.String(), name) {
				t.Skipf("runs only when named: -run 'TestTickAllocations100k/%s'", name)
			}
			budget := perNode * float64(n)
			s := allocSim(t, n)
			for s.tick < 15 {
				tick(s)
			}
			got := testing.AllocsPerRun(3, func() { tick(s) })
			if got > budget {
				t.Fatalf("steady-state tick allocations at %s = %.1f, budget %.0f", name, got, budget)
			}
			t.Logf("steady-state allocations per tick at %s: %.1f (budget %.0f)", name, got, budget)
		})
	}
}
