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
// node, and start from the plan's own requests (the plan charges each
// to its row): every drawn id is chased through each neighbor's buffer
// with nb.buf.Has(id). From the same stream, the word-parallel prefetch
// must route the same requests.
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
	// The plan's requests, the last ones routed, spent their links'
	// room first.
	linkReqs := make([]int32, len(s.g.Neighbors(n.id)))
	for _, rr := range sh.requests[len(sh.requests)-len(ws.plan.Requests):] {
		linkReqs[rr.Link]++
	}
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
// once with prefetch swapped for the probing reference, which draws from
// the node's own plan stream as the engine's prefetch does. The two
// routed request sequences must be equal. (When no row holds a pool id
// the reference still shuffles and the shipped prefetch draws nothing:
// each node's stream is its own, so no later draw depends on it.)
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
				Graph: g, Seed: 5, NewAlgorithm: Fast, Qs: 50,
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
				ws := s.workers[0]
				for _, nd := range s.nodes {
					if !nd.alive || nd.isSource || nd.profile.In <= 0 || nd.in.Available() < 1 {
						continue
					}
					s.planNode(ws, &shipped, nd, s.round)

					// The scheduler alone (it draws nothing), then the
					// reference prefetch on the state planNode leaves behind,
					// with its in-flight set and per-link counters fresh.
					// (planNode returns before prefetch when nothing is needed.)
					ws.Planner.par.DisablePrefetch = true
					ran := s.planNode(ws, &probed, nd, s.round)
					ws.Planner.par.DisablePrefetch = false
					if ran {
						planned := len(probed.requests)
						ws.seen.begin()
						rng := rand.New(&engine.Source{})
						rng.Seed(engine.SeedFor(5, rngPlan, s.tick, s.round, int(nd.id)))
						probePrefetch(s, ws, &probed, nd, rng)
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
// (planRound). Before every retry round it re-plans, on a scratch outbox
// and the node's own stream, each node the memo would skip. The re-plan
// must route nothing. The runs cover both capacity substrates, the normal
// algorithm, disabled prefetch and a lossy transport.
func TestRetrySkipMatchesReplan(t *testing.T) {
	// pooled says whether the run must skip nodes whose re-plan runs a
	// prefetch over a non-empty pool. Under per-link capacity a link is
	// rarely spent, so there an idle node is one that needs nothing.
	cases := []struct {
		name   string
		edit   func(*Config)
		pooled bool
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
			g := testTopology(t, 300, 7)
			cfg := singleSwitch(Config{
				Graph: g, Seed: 7, NewAlgorithm: Fast, Qs: 50,
				FirstSource: g.MinDegreeNode(), SharedOutbound: true,
				HorizonTicks: 90, JoinSpreadTicks: 25,
			}, 40, -1)
			tc.edit(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var skipped, withPool, retryRounds int
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
					planned := s.planNode(ws, &scratch, nd, s.round)
					if len(scratch.requests) != 0 {
						t.Fatalf("tick %d round %d: idle node %d routes %d requests when re-planned",
							s.tick, s.round, nd.id, len(scratch.requests))
					}
					skipped++
					if planned && !cfg.DisablePrefetch && len(ws.env.NeedOld) > 0 {
						withPool++
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
			t.Logf("%d skipped plans compared over %d retry rounds, %d of them with a prefetch pool", skipped, retryRounds, withPool)
			if skipped == 0 || (tc.pooled && withPool == 0) {
				t.Fatal("the run never skipped a node, or never one whose prefetch has a pool")
			}
		})
	}
}

// TestPlanStreamIsPerNode pins the plan phase's per-node streams: before
// every plan round of a run, one worker plans every eligible node on a
// scratch outbox in id order, then again on another in reverse order. A
// node must route the same requests both times, whichever nodes the
// worker planned before it and however many draws they made.
func TestPlanStreamIsPerNode(t *testing.T) {
	g := testTopology(t, 300, 7)
	s, err := New(singleSwitch(Config{
		Graph: g, Seed: 11, NewAlgorithm: Fast, Qs: 50,
		FirstSource: g.MinDegreeNode(), SharedOutbound: true,
		HorizonTicks: 70, JoinSpreadTicks: 25, Workers: 1,
	}, 40, -1))
	if err != nil {
		t.Fatal(err)
	}
	var compared, prefetched int
	// plan plans the nodes in the given order and returns each one's
	// requests, indexed by node id.
	plan := func(order []*nodeState) [][]routedRequest {
		var sh shardScratch
		spans := make([][2]int, len(s.nodes))
		for _, nd := range order {
			from := len(sh.requests)
			if s.planNode(s.workers[0], &sh, nd, s.round) {
				prefetched += len(sh.requests) - from - len(s.workers[0].plan.Requests)
			}
			spans[nd.id] = [2]int{from, len(sh.requests)}
		}
		reqs := make([][]routedRequest, len(s.nodes))
		for id, sp := range spans {
			reqs[id] = sh.requests[sp[0]:sp[1]]
		}
		return reqs
	}
	compare := func() {
		var order []*nodeState
		for _, nd := range s.nodes {
			if nd.alive && !nd.isSource && nd.profile.In > 0 && nd.in.Available() >= 1 {
				order = append(order, nd)
			}
		}
		forward := plan(order)
		slices.Reverse(order)
		backward := plan(order)
		for _, nd := range order {
			if !slices.Equal(forward[nd.id], backward[nd.id]) {
				t.Fatalf("tick %d round %d: node %d routes %d requests planned in id order, %d in reverse",
					s.tick, s.round, nd.id, len(forward[nd.id]), len(backward[nd.id]))
			}
			compared++
		}
	}
	s.sched = engine.NewPipeline(
		engine.Phase{Name: "plan", Run: func() { compare(); s.planRound() }},
		engine.Phase{Name: "serve", Run: s.serveRound},
	)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d node plans compared, %d prefetched requests among them", compared, prefetched)
	if prefetched == 0 {
		t.Fatal("no compared plan prefetched: the streams were never drawn from")
	}
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

// TestPerLinkPullsFitTheLink pins the plan's charge of its own requests
// (Planner.Plan): under per-link capacity the requests a node routes
// over one link in a round — planned and prefetched — never exceed the
// room the link has left, so the serve phase refuses none of them for
// link capacity. Before every plan round it re-plans each node on a
// scratch outbox, prefetch included, and counts its requests per link.
func TestPerLinkPullsFitTheLink(t *testing.T) {
	cfg := quickConfig(testTopology(t, 200, 7), Fast)
	cfg.SharedOutbound = false
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var routed int
	check := func() {
		ws := s.workers[0]
		for _, nd := range s.nodes {
			if !nd.alive || nd.isSource || nd.profile.In <= 0 || nd.in.Available() < 1 {
				continue
			}
			var out shardScratch
			s.planNode(ws, &out, nd, s.round)
			perLink := make(map[int32]int)
			for _, rr := range out.requests {
				perLink[rr.Link]++
			}
			routed += len(out.requests)
			for link, n := range perLink {
				nb := s.nodes[s.g.Neighbors(nd.id)[link]]
				room := s.linkCap(nb) - int(nd.linkGrants[link])
				if n > room {
					t.Fatalf("tick %d round %d: node %d routes %d requests over link %d with room for %d",
						s.tick, s.round, nd.id, n, link, room)
				}
			}
		}
	}
	s.sched = engine.NewPipeline(
		engine.Phase{Name: "plan", Run: func() { check(); s.planRound() }},
		engine.Phase{Name: "serve", Run: s.serveRound},
	)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if routed == 0 {
		t.Fatal("the run routed no requests")
	}
	t.Logf("%d requests checked against their links' room", routed)
}
