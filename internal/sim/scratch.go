package sim

import (
	"math/rand"

	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

// This file holds the allocation-free scratch structures behind the
// phase pipeline. The old engine kept four maps on the Sim
// (grantSet, pairGrants, pairReqs, plannedSet) that were cleared by
// iterating every key each tick; the sharded engine replaces them with
// generation-stamped flat arrays (reset is a single counter increment)
// and per-neighbor counter slices on the nodes (see nodeState).

// segSet is a set of segment ids backed by a generation-stamped flat
// array: membership is marks[id] == gen, and begin() empties the set by
// bumping gen. Segment ids are dense from 0 (the global id space of the
// timeline), so the array spans the stream emitted so far.
type segSet struct {
	gen   uint32
	marks []uint32
}

// begin starts a fresh, empty set.
func (s *segSet) begin() {
	s.gen++
	if s.gen == 0 { // wrapped: stale marks could alias, wipe them
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.gen = 1
	}
}

// add inserts id into the set.
func (s *segSet) add(id segment.ID) {
	i := int(id)
	if i >= len(s.marks) {
		grown := make([]uint32, i+i/2+64)
		copy(grown, s.marks)
		s.marks = grown
	}
	s.marks[i] = s.gen
}

// has reports membership.
func (s *segSet) has(id segment.ID) bool {
	i := int(id)
	return i < len(s.marks) && s.marks[i] == s.gen
}

// nodeCounter counts per-node values with the same stamped-reset trick
// (the per-requester grants inside one supplier's serve queue).
type nodeCounter struct {
	gen    uint32
	stamps []uint32
	counts []int32
}

// begin starts a fresh, all-zero counter.
func (c *nodeCounter) begin() {
	c.gen++
	if c.gen == 0 {
		for i := range c.stamps {
			c.stamps[i] = 0
		}
		c.gen = 1
	}
}

func (c *nodeCounter) grow(i int) {
	grown := make([]uint32, i+i/2+64)
	copy(grown, c.stamps)
	c.stamps = grown
	counts := make([]int32, len(grown))
	copy(counts, c.counts)
	c.counts = counts
}

// get returns the count for id.
func (c *nodeCounter) get(id overlay.NodeID) int32 {
	i := int(id)
	if i >= len(c.stamps) || c.stamps[i] != c.gen {
		return 0
	}
	return c.counts[i]
}

// inc increments the count for id.
func (c *nodeCounter) inc(id overlay.NodeID) {
	i := int(id)
	if i >= len(c.stamps) {
		c.grow(i)
	}
	if c.stamps[i] != c.gen {
		c.stamps[i] = c.gen
		c.counts[i] = 0
	}
	c.counts[i]++
}

// workerScratch is the reusable state of one pool worker slot. Workers
// execute shards dynamically, which is safe because nothing here carries
// information between shards: every field is (re)initialized per node or
// per supplier visit.
type workerScratch struct {
	// Planner is the worker's planning step (peercore.go), run for every
	// node the worker plans.
	Planner
	// Server is the worker's serving step (peercore.go), run for every
	// supplier queue the worker answers.
	Server
	// rng is the worker's generator, on a one-word engine.Source: every
	// sharded phase that draws randomness restarts it on its stream
	// (stream) — the plan phase once per planned node, the serve and
	// transit phases once per shard — so a stream's draws depend only on
	// its (phase, tick, round, cell) key, never on what the worker drew
	// before.
	rng *rand.Rand
}

// stream restarts the worker's generator on the stream seed and returns
// it.
func (ws *workerScratch) stream(seed int64) *rand.Rand {
	ws.rng.Seed(seed)
	return ws.rng
}

// shardScratch buffers one shard's phase output until the shard-ordered
// reduce. Indexed by shard on the fixed grid; contents are valid only
// within the producing round.
type shardScratch struct {
	// requests is the plan phase outbox: requests routed to suppliers
	// during the reduce, in planning order. The gather first regroups
	// them stably by destination shard (bucketRequests): reqSpare is the
	// buffer that regrouping sorts into (the two swap each round), reqOff
	// the per-destination-shard offsets it leaves behind.
	requests []routedRequest
	reqSpare []routedRequest
	reqOff   []int32
	// proposals is the serve phase outbox: tentative grants awaiting the
	// commit step.
	proposals []routedRequest
	// Commit index over proposals: propOrder is the proposal indexes
	// stably sorted by requester shard, propOff the per-requester-shard
	// offsets into it, accept the per-proposal win flags the
	// requester-shard workers set (distinct indexes, so the concurrent
	// writes are race-free).
	propOrder []int32
	propOff   []int32
	accept    []bool
	// Requester-side commit output, reduced serially in shard order:
	// deliveries landing at this shard's nodes (classic substrate),
	// shared-mode capacity refunds owed to suppliers, and the shard's
	// committed-grant / loss-induced re-request counts.
	landed     []delivery
	refundSup  []overlay.NodeID
	committed  int
	reRequests int
	// Plan-view arenas: the per-period rows of the shard's nodes (and
	// their adjacency slots) live as spans of these backing arrays instead
	// of per-node slices. Reset at round 0 of each period, right before
	// buildView repopulates them shard-locally — so in steady state a
	// whole period's views cost zero allocations, where per-node slices
	// kept paying append-growth during warm-up. A mid-build realloc
	// strands earlier spans on the old backing, which is harmless: spans
	// are read through the node fields, not the arena.
	rowArena []Row
	adjArena []int32
	// controlBits accumulates the round-0 buffer-map exchange cost.
	controlBits int64
	// Transit phase output (netmodel runs): messages popped, delivered
	// and lost this tick, and the delivered messages' summed delay in
	// milliseconds. Severed (partition-crossing drops) and evaporated (dead
	// destination) messages are tracked apart from loss draws for the
	// run-level conservation ledger; the window's NetLost counter still
	// sums losses and severs together, as it always has.
	netPopped             int
	netDelivered, netLost int64
	netSevered, netEvap   int64
	netDelayMS            float64
}

// routedRequest is a pull request together with the supplier it is
// addressed to (the routing key of the merge step). In the serve outbox
// it is a proposal: a tentative grant the supplier has already spent
// capacity on (an outbound token in shared mode, a linkGrants slot per
// link), which the commit lands as a delivery or refunds when the
// requester's inbound budget was oversubscribed by competing suppliers.
type routedRequest struct {
	sup overlay.NodeID
	Request
}

// delivery is a transfer granted this tick, landed at tick end.
type delivery struct {
	to  overlay.NodeID
	seg segment.ID
}
