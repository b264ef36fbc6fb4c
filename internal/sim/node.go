package sim

import (
	"gossipstream/internal/bandwidth"
	"gossipstream/internal/buffer"
	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
)

// nodeState is everything one simulated peer owns. During the parallel
// phases a node's fields are mutated only by the worker that owns its
// shard — with one audited exception, linkGrants, whose per-neighbor
// slots are each written by exactly one goroutine (see the field
// comment).
type nodeState struct {
	id      overlay.NodeID
	buf     *buffer.Buffer
	profile bandwidth.Profile
	// base is the node's unshifted capacity profile: the anchor
	// BandwidthShift events rescale from (profile = base × factor).
	base    bandwidth.Profile
	in, out *bandwidth.Budget

	alive    bool
	isSource bool // currently acting as the streaming source
	joinTick int  // tick the node entered the system (0 for initial nodes)
	// startTick delays initial nodes' activation (staggered assembly of
	// the session); inactive nodes neither request nor supply.
	startTick int

	// Playback is the embedded per-node protocol core (peercore.go): the
	// playback/session state machine shared with the live runtime.
	Playback

	// q0 is the undelivered S1 backlog at the switch tick, unset before
	// the node's first switch window (the TrackRatios denominator; the
	// window's own stamps live in Sim.win).
	q0 int

	// ledger records the node's requests: the commit issues each grant,
	// which stays in flight, not to be requested again, until delivery
	// lands all grants at period end, or the netmodel transit lands or
	// loses it when its message is due. Only the worker owning the node's
	// shard writes it; planning and Takes read it frozen.
	ledger Ledger

	// linkGrants[i] counts this period's grants over the link from the
	// node's i-th neighbor (the per-pair cap of the per-link substrate —
	// the former pairGrants map, now requester-side and allocation-free).
	// Slot i is written only by neighbor i's serve goroutine during
	// propose and by the node's own shard during commit, never by two
	// goroutines at once.
	linkGrants []int32

	// Per-period plan rows, built once at round 0 of each scheduling
	// period and reused by the retry rounds (only their headroom changes
	// between rounds): view holds the alive, reachable neighbors; viewAdj
	// maps each of them back to its index in the adjacency list (the
	// linkGrants slot). Both are read-only spans into the owning shard's
	// plan-view arenas (shardScratch), valid for the period they were built
	// in — a node that skips a period keeps a stale span but never reads
	// it, because the view is only consumed by the rounds of the period
	// that built it.
	view    []Row
	viewAdj []int32

	// idle is the planRound memo of the node's last plan this period:
	// set when it routed no request. Written at every plan, read by the
	// retry rounds, which skip an idle node (phase_plan.go).
	idle bool
}

func newNodeState(id overlay.NodeID, prof bandwidth.Profile, joinTick int) *nodeState {
	return &nodeState{
		id:      id,
		buf:     buffer.New(BufferCap),
		profile: prof,
		base:    prof,
		in:      bandwidth.NewBudget(prof.In),
		out:     bandwidth.NewBudget(prof.Out),
		alive:   true,
		// Pre-size the in-flight set to a period's worth of grants: the
		// slices converge there anyway, and paying it at construction
		// keeps the first scheduling periods growth-free.
		ledger:   Ledger{inflight: make([]segment.ID, 0, 16), issued: make([]int, 0, 16)},
		joinTick: joinTick,
		Playback: NewPlayback(0, 0, 1),
		q0:       unset,
	}
}

// receive lands one segment in the node's buffer (end-of-tick delivery).
func (n *nodeState) receive(id segment.ID) {
	n.buf.Insert(id)
}

// becomeSource promotes the node to streaming source: inbound drops to
// zero, outbound is boosted, and any in-progress playback of the previous
// stream is abandoned (the speaker stops being a listener).
func (n *nodeState) becomeSource() {
	n.isSource = true
	n.profile = bandwidth.SourceProfile()
	n.in.SetRate(0)
	n.out.SetRate(n.profile.Out)
	n.Active = false
}

// undeliveredIn counts the ids in [lo, hi] missing from the buffer.
func (n *nodeState) undeliveredIn(lo, hi segment.ID) int {
	if hi < lo {
		return 0
	}
	missing := 0
	for id := lo; id <= hi; id++ {
		if !n.buf.Has(id) {
			missing++
		}
	}
	return missing
}
