package sim

import (
	"math/rand"
	"slices"
	"testing"

	"gossipstream/internal/netmodel"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim/engine"
)

// probePrefetch and probePickSupplier are the prefetch loop as it was
// before availability was read in bulk, kept verbatim as the reference
// except that the per-link request counts live in the probe, not on the
// node: every drawn id is chased through each neighbor's buffer with
// nb.buf.Has(id). The word-parallel prefetch must route the same requests
// and leave the shared RNG stream at the same position.
func probePrefetch(s *Sim, ws *workerScratch, sh *shardScratch, n *nodeState, rng *rand.Rand) {
	budget := n.in.Available() - len(ws.plan.Requests)
	if budget <= 0 {
		return
	}
	for _, r := range ws.plan.Requests {
		ws.seen.add(r.Segment)
	}
	pool := append(ws.pool[:0], ws.env.NeedOld...)
	ws.pool = pool
	linkReqs := make([]int32, len(s.g.Neighbors(n.id)))
	for k := 0; k < len(pool) && budget > 0; k++ {
		j := k + rng.Intn(len(pool)-k)
		pool[k], pool[j] = pool[j], pool[k]
		id := pool[k]
		if ws.seen.has(id) {
			continue
		}
		sup, ni := probePickSupplier(s, n, linkReqs, id, rng)
		if sup < 0 {
			continue
		}
		linkReqs[ni]++
		sh.requests = append(sh.requests, routedRequest{
			sup:     sup,
			Request: Request{From: n.id, Seg: id, Link: ni},
		})
		budget--
	}
}

func probePickSupplier(s *Sim, n *nodeState, linkReqs []int32, id segment.ID, rng *rand.Rand) (overlay.NodeID, int32) {
	best, bestIdx := overlay.NodeID(-1), int32(-1)
	count := 0
	for ni, v := range s.g.Neighbors(n.id) {
		nb := s.nodes[v]
		if !nb.alive || !nb.buf.Has(id) || s.blocked(n.id, v) {
			continue
		}
		if s.cfg.SharedOutbound {
			if nb.out.Available() < 1 {
				continue
			}
		} else if int(n.linkGrants[ni]+linkReqs[ni]) >= s.linkCap(nb) {
			continue
		}
		count++
		if rng.Intn(count) == 0 {
			best, bestIdx = v, int32(ni)
		}
	}
	return best, bestIdx
}

// hubGraph wires node 0 to every other node, far more neighbors than the
// planner's core.MaxSuppliers=64 supplier mask holds, in a chosen
// adjacency order: its first 62 slots are leaves that know nobody else
// (they only ever hold what the hub gave them), then come the nodes of a
// ring-with-chords mesh. The hub's planner therefore sees two useful
// suppliers; everything else it needs it can only prefetch, mostly from
// neighbors past slot 64.
func hubGraph(n int) *overlay.Graph {
	const leaves = 62
	rng := rand.New(rand.NewSource(99))
	g := overlay.New(n)
	for v := 1; v <= leaves; v++ {
		g.AddEdge(0, overlay.NodeID(v))
	}
	mesh := n - 1 - leaves
	for i := 0; i < mesh; i++ {
		v := overlay.NodeID(1 + leaves + i)
		g.AddEdge(v, overlay.NodeID(1+leaves+(i+1)%mesh))
		for k := 0; k < 2; k++ {
			if w := overlay.NodeID(1 + leaves + rng.Intn(mesh)); w != v {
				g.AddEdge(v, w)
			}
		}
	}
	for i := 0; i < mesh; i++ {
		g.AddEdge(0, overlay.NodeID(1+leaves+i))
	}
	return g
}

// TestPrefetchMatchesProbeLoop replays, before every plan round of a run
// with a >64-neighbor hub and several serve rounds per period, the round's
// planning of all nodes twice on scratch outboxes — once as shipped and
// once with prefetch swapped for the probing reference — from identically
// seeded generators shared by all nodes, as in the engine. The two routed
// request sequences must be equal and the generators must end in step.
func TestPrefetchMatchesProbeLoop(t *testing.T) {
	const hub = overlay.NodeID(0)
	for _, shared := range []bool{true, false} {
		name := "perlink"
		if shared {
			name = "shared"
		}
		t.Run(name, func(t *testing.T) {
			g := hubGraph(220)
			// The first source sits past the hub's 64th adjacency slot, out
			// of its planner's sight.
			source := g.Neighbors(hub)[150]
			s, err := New(singleSwitch(Config{
				Graph: g, Seed: 5, NewAlgorithm: Fast,
				FirstSource: source, SharedOutbound: shared,
				HorizonTicks: 60, JoinSpreadTicks: 4, Workers: 1,
			}, 45, -1))
			if err != nil {
				t.Fatal(err)
			}
			var prefetched, fromHubTail, retryRounds int
			compare := func() {
				if s.round > 0 {
					retryRounds++
				}
				var shipped, probed shardScratch
				seed := engine.SeedFor(5, rngPlan, s.tick, s.round, 0)
				rngShipped, rngProbed := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				ws := s.workers[0]
				for _, nd := range s.nodes {
					if !nd.alive || nd.isSource || nd.profile.In <= 0 || nd.in.Available() < 1 {
						continue
					}
					s.planNode(ws, &shipped, nd, s.round, rngShipped)

					// The scheduler alone (it draws nothing), then the
					// reference prefetch on the state planNode leaves behind,
					// with its in-flight set and per-link counters fresh.
					// (planNode returns before prefetch when nothing is needed.)
					s.cfg.DisablePrefetch = true
					ran := s.planNode(ws, &probed, nd, s.round, nil)
					s.cfg.DisablePrefetch = false
					if ran {
						planned := len(probed.requests)
						ws.seen.begin()
						probePrefetch(s, ws, &probed, nd, rngProbed)
						for _, rr := range probed.requests[planned:] {
							prefetched++
							if rr.From == hub && rr.Link >= 64 {
								fromHubTail++
							}
						}
					}
				}
				if !slices.Equal(shipped.requests, probed.requests) {
					t.Fatalf("tick %d round %d: routed requests differ: %d shipped, %d from the probe loop",
						s.tick, s.round, len(shipped.requests), len(probed.requests))
				}
				if a, b := rngShipped.Int63(), rngProbed.Int63(); a != b {
					t.Fatalf("tick %d round %d: the RNG streams left prefetch out of step", s.tick, s.round)
				}
			}
			s.sched = engine.NewPipeline(
				engine.Phase{Name: "plan", Run: func() { compare(); s.planRound() }},
				engine.Phase{Name: "serve", Run: s.serveRound},
			)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d prefetch requests compared over %d retry rounds, %d of them from the hub to neighbors past slot 64",
				prefetched, retryRounds, fromHubTail)
			if prefetched == 0 || retryRounds == 0 || fromHubTail == 0 {
				t.Fatal("the run never exercised a retry round or a prefetch past the hub's 64th neighbor")
			}
		})
	}
}

// TestRetrySkipMatchesReplan pins the retry rounds' skip of idle nodes
// (planRound). Before every retry round it re-plans each node the memo
// would skip, on a scratch outbox with a generator of its own, while a
// clone of that generator takes the memo's discards instead. The re-plan
// must route nothing and leave its generator where the discards leave
// the clone. The runs cover both capacity substrates, the normal
// algorithm, disabled prefetch and a lossy transport.
func TestRetrySkipMatchesReplan(t *testing.T) {
	// draws says whether the run must skip nodes whose prefetch draws.
	// Under per-link capacity a link is rarely spent, so there an idle
	// node is one that needs nothing, and it draws nothing.
	cases := []struct {
		name  string
		edit  func(*Config)
		draws bool
	}{
		{"shared", func(*Config) {}, true},
		{"perlink", func(c *Config) { c.SharedOutbound = false }, false},
		{"normal", func(c *Config) { c.NewAlgorithm = Normal }, true},
		{"noprefetch", func(c *Config) { c.DisablePrefetch = true }, false},
		{"lossy", func(c *Config) {
			c.Seed = 19
			c.Net = &netmodel.Config{DefaultPingMS: 80, JitterMS: 150, Loss: 0.05}
			c.Script = &Script{Events: []Event{LossBurstAt(45, 40, 0.25), SwitchAt(55, -1)}}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := singleSwitch(Config{
				Graph: testTopology(t, 300, 7), Seed: 7, NewAlgorithm: Fast,
				FirstSource: -1, SharedOutbound: true,
				HorizonTicks: 90, JoinSpreadTicks: 25,
			}, 40, -1)
			tc.edit(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var skipped, withDraws, retryRounds int
			compare := func() {
				if s.round == 0 {
					return
				}
				retryRounds++
				ws := s.workers[0]
				for _, nd := range s.nodes {
					if !nd.alive || nd.isSource || nd.profile.In <= 0 || nd.in.Available() < 1 || !nd.idle {
						continue
					}
					var scratch shardScratch
					seed := engine.SeedFor(cfg.Seed, rngPlan, s.tick, s.round, int(nd.id))
					replanned, discarded := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					s.planNode(ws, &scratch, nd, s.round, replanned)
					for m := nd.idleDraws; m > 0; m-- {
						discardIntn(discarded, int(m))
					}
					if len(scratch.requests) != 0 {
						t.Fatalf("tick %d round %d: idle node %d routes %d requests when re-planned",
							s.tick, s.round, nd.id, len(scratch.requests))
					}
					if replanned.Int63() != discarded.Int63() {
						t.Fatalf("tick %d round %d: idle node %d: %d discards leave the generator out of step with its re-plan",
							s.tick, s.round, nd.id, nd.idleDraws)
					}
					skipped++
					if nd.idleDraws > 0 {
						withDraws++
					}
				}
			}
			s.sched = engine.NewPipeline(
				engine.Phase{Name: "plan", Run: func() { compare(); s.planRound() }},
				engine.Phase{Name: "serve", Run: s.serveRound},
			)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d skipped plans compared over %d retry rounds, %d of them with prefetch draws", skipped, retryRounds, withDraws)
			if skipped == 0 || (tc.draws && withDraws == 0) {
				t.Fatal("the run never skipped a node, or never one whose prefetch draws")
			}
		})
	}
}

// countingSource counts the values drawn from the source it wraps.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// TestDiscardIntnMatchesIntn pins the generator position discardIntn
// leaves to rng.Intn's: over many seeds and bounds — 0, small ones,
// powers of two (one masked draw), 613 (a plan-sized pool) and 2^30+12345
// (where about half the draws are rejected and redrawn) — the next Int63
// after a run of discards equals the one after the same run of Intn
// calls. A countdown from 613 to 1, the draws of one prefetch shuffle,
// is compared the same way.
func TestDiscardIntnMatchesIntn(t *testing.T) {
	bounds := []int{0, 1, 2, 3, 613, 1<<30 + 12345}
	for k := 2; k <= 30; k++ {
		bounds = append(bounds, 1<<k)
	}
	rejections := 0
	for seed := int64(1); seed <= 300; seed++ {
		for _, n := range bounds {
			ref := rand.New(rand.NewSource(seed))
			src := &countingSource{Source: rand.NewSource(seed)}
			got := rand.New(src)
			const calls = 8
			for i := 0; i < calls; i++ {
				if n > 0 {
					ref.Intn(n)
				}
				discardIntn(got, n)
			}
			if a, b := ref.Int63(), got.Int63(); a != b {
				t.Fatalf("seed %d n %d: the generator after %d discards is not where %d Intn calls leave it", seed, n, calls, calls)
			}
			if n > 0 {
				rejections += src.draws - 1 - calls
			}
		}
		ref, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for m := 613; m > 0; m-- {
			ref.Intn(m)
			discardIntn(got, m)
		}
		if a, b := ref.Int63(), got.Int63(); a != b {
			t.Fatalf("seed %d: the generator after a 613-draw countdown of discards is out of step", seed)
		}
	}
	if rejections == 0 {
		t.Fatal("no draw was rejected: the redraw branch went untested")
	}
	t.Logf("%d rejected draws redrawn", rejections)
}

// TestShardBucketsMatchStableSort pins the two counting sorts of the
// sharded routing against the stable comparison sorts they replaced: the
// same permutation, and offsets that delimit each shard's run.
func TestShardBucketsMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		shards := 1 + rng.Intn(9)
		n := rng.Intn(400)
		var sh shardScratch
		for i := 0; i < n; i++ {
			node := overlay.NodeID(rng.Intn(shards * engine.ShardSize))
			sh.requests = append(sh.requests, routedRequest{sup: node, Request: Request{Seg: segment.ID(i)}})
			sh.proposals = append(sh.proposals, routedRequest{Request: Request{From: node, Seg: segment.ID(i)}})
		}
		want := slices.Clone(sh.requests)
		slices.SortStableFunc(want, func(a, b routedRequest) int {
			return engine.ShardOf(int(a.sup)) - engine.ShardOf(int(b.sup))
		})
		sh.bucketRequests(shards)
		sh.buildCommitIndex(shards)
		if !slices.Equal(sh.requests, want) {
			t.Fatalf("trial %d: bucketRequests is not the stable sort by destination shard", trial)
		}
		for i, idx := range sh.propOrder {
			// Proposal i carries seg i, so the commit index must list the
			// proposals in the order the sorted requests carry their segs.
			if sh.proposals[idx].Seg != want[i].Seg {
				t.Fatalf("trial %d: propOrder[%d] = %d, stable sort puts proposal %d there", trial, i, idx, want[i].Seg)
			}
		}
		for d := 0; d < shards; d++ {
			for _, off := range [][]int32{sh.reqOff, sh.propOff} {
				for _, rr := range want[off[d]:off[d+1]] {
					if engine.ShardOf(int(rr.sup)) != d {
						t.Fatalf("trial %d: offsets %v put a shard-%d item in shard %d's run", trial, off, engine.ShardOf(int(rr.sup)), d)
					}
				}
			}
		}
		if got := int(sh.reqOff[shards]); got != n || int(sh.propOff[shards]) != n || len(sh.accept) != n {
			t.Fatalf("trial %d: offsets end at %d/%d, accept holds %d, want %d", trial, got, sh.propOff[shards], len(sh.accept), n)
		}
	}
}
