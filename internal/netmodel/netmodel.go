package netmodel

import (
	"sort"

	"gossipstream/internal/overlay"
	"gossipstream/internal/segment"
	"gossipstream/internal/sim/engine"
)

// DefaultPingMS is the fallback round-trip ping for nodes without a
// trace record (churn joiners, flash-crowd members): a middle-of-the-road
// Clip2 peer.
const DefaultPingMS = 60

// Config describes the transport model of one run. The zero value of
// every field selects a sane default via Defaulted; a nil *Config on
// sim.Config disables the model entirely (instant lossless delivery).
type Config struct {
	// PingMS holds per-node round-trip ping times in milliseconds,
	// indexed by node id — typically the ping column of the run's trace
	// (the one Clip2-DSS field the paper exploits for heterogeneity).
	// Nodes beyond the slice (churn joiners, crowd members) use
	// DefaultPingMS.
	PingMS []int
	// DefaultPingMS is the ping of nodes without a PingMS entry
	// (0 → the package DefaultPingMS constant).
	DefaultPingMS int
	// JitterMS is the amplitude of the per-message uniform jitter added
	// to the propagation delay: each message draws from [0, JitterMS).
	JitterMS float64
	// Loss is the baseline per-message loss probability in [0, 1). A
	// LossBurst event overrides it for a bounded window.
	Loss float64
}

// Defaulted returns a copy with zero fields replaced by defaults.
func (c Config) Defaulted() Config {
	if c.DefaultPingMS <= 0 {
		c.DefaultPingMS = DefaultPingMS
	}
	return c
}

// Message is one granted segment in flight from a supplier to a
// requester. The shape is shared with the planned real-socket runtime:
// any transport that produces (From, To, Seg, ArrivalMS) tuples can feed
// the same transit phase.
type Message struct {
	From overlay.NodeID
	To   overlay.NodeID
	Seg  segment.ID
	// Sent is the tick the grant was committed; Due the tick whose
	// transit phase delivers the message — derived from ArrivalMS with
	// the same comparisons PopDue makes, so it names the actual delivery
	// tick (Due == Sent reproduces the classic end-of-tick delivery
	// timing).
	Sent, Due int
	// ArrivalMS is the message's continuous arrival timestamp in
	// milliseconds since the start of the run: the send tick's start
	// plus the link delay.
	ArrivalMS float64
	// seq is the global injection sequence number — the heap tiebreak
	// that makes equal-timestamp pops independent of heap internals.
	seq uint64
}

// DelayMS returns the message's link delay relative to its send instant:
// ArrivalMS minus the start of the Sent period.
func (m Message) DelayMS(tauSeconds float64) float64 {
	return m.ArrivalMS - float64(m.Sent)*tauSeconds*1000
}

// Model is the runtime transport state of one run: the delay/loss
// parameters, the current latency factor and partition, and the
// in-flight message heaps. Methods that mutate it (Send, PopDue,
// SetLatencyFactor, ...) are called from serial pipeline steps or — for
// PopDue — from the worker owning the destination shard, so the Model
// needs no locking.
type Model struct {
	cfg   Config
	tau   float64
	tauMS float64

	latFactor float64 // current propagation multiplier (LatencyShift)

	burstLoss  float64 // loss override while a LossBurst is active
	burstUntil int     // first tick after the burst

	partitioned bool
	partSeed    uint64
	partFrac    float64
	// Ping-clustered split state (PartitionByPing): side 1 is the
	// low-ping cluster below partPingCut, with ties at the cut broken by
	// the seeded hash with probability partTieFrac.
	partByPing  bool
	partPingCut int
	partTieFrac float64

	seq      uint64
	heaps    []msgHeap // in-flight messages, per destination shard
	inFlight int
}

// New builds the model for one run. cfg is defaulted, not validated —
// scenario.Scenario.Validate checks a run's net parameters before any
// Model exists.
func New(cfg Config, tau float64) *Model {
	return &Model{cfg: cfg.Defaulted(), tau: tau, tauMS: tau * 1000, latFactor: 1}
}

// Reserve pre-sizes the per-destination-shard heaps for an expected
// in-flight population of perNode messages per node. Purely an
// allocation optimization: the heaps reach this capacity through
// amortized growth anyway, but reserving it up front keeps the warm-up
// ticks free of heap reallocations. Call before the first Send; later
// calls only ever grow the reservation.
func (m *Model) Reserve(nodes, perNode int) {
	if nodes <= 0 || perNode <= 0 {
		return
	}
	shards := engine.NumShards(nodes)
	for len(m.heaps) < shards {
		m.heaps = append(m.heaps, nil)
	}
	want := engine.ShardSize * perNode
	for i := range m.heaps {
		if cap(m.heaps[i]) < want {
			h := make(msgHeap, len(m.heaps[i]), want)
			copy(h, m.heaps[i])
			m.heaps[i] = h
		}
	}
}

// Ping returns the configured round-trip ping of a node in milliseconds.
func (m *Model) Ping(n overlay.NodeID) int {
	if int(n) < len(m.cfg.PingMS) {
		return m.cfg.PingMS[n]
	}
	return m.cfg.DefaultPingMS
}

// JitterMS returns the configured jitter amplitude (0 = no jitter, the
// caller can skip its jitter stream entirely).
func (m *Model) JitterMS() float64 { return m.cfg.JitterMS }

// DelayMS is one message's continuous link delay in milliseconds:
// propagation is the mean of the two endpoints' one-way delays (ping/2
// each), scaled by the current latency factor, plus the caller-drawn
// jitter.
func (m *Model) DelayMS(a, b overlay.NodeID, jitterMS float64) float64 {
	return m.latFactor*(float64(m.Ping(a))+float64(m.Ping(b)))/2 + jitterMS
}

// Send injects one granted segment into the in-flight queue and returns
// its delivery tick. jitterMS is the caller's draw from its jitter
// stream (0 when jitter is disabled). The arrival timestamp is the send
// tick's start plus the continuous link delay — a delay below one period
// lands in the sending tick, the classic substrate's end-of-tick
// delivery.
func (m *Model) Send(tick int, from, to overlay.NodeID, seg segment.ID, jitterMS float64) int {
	arrival := float64(tick)*m.tauMS + m.DelayMS(from, to, jitterMS)
	// Derive Due from the timestamp with the same comparisons PopDue
	// makes, so the returned tick agrees with the actual delivery even
	// when the division rounds across a period boundary.
	due := int(arrival / m.tauMS)
	for float64(due)*m.tauMS > arrival {
		due--
	}
	for float64(due+1)*m.tauMS <= arrival {
		due++
	}
	shard := engine.ShardOf(int(to))
	for len(m.heaps) <= shard {
		m.heaps = append(m.heaps, nil)
	}
	m.seq++
	m.heaps[shard].push(Message{From: from, To: to, Seg: seg, Sent: tick, Due: due, ArrivalMS: arrival, seq: m.seq})
	m.inFlight++
	return due
}

// PopDue pops every message of the destination shard whose arrival
// timestamp falls within the current period (ArrivalMS < the start of
// tick+1), in (ArrivalMS, injection) order, and hands each to fn. It is
// the shard-local half of the transit phase: distinct shards touch
// distinct heaps, so concurrent PopDue calls for different shards are
// race-free. The inFlight counter is deliberately not maintained here —
// the serial merge step calls SettleDelivered with the per-shard pop
// counts.
func (m *Model) PopDue(shard, tick int, fn func(Message)) int {
	if shard >= len(m.heaps) {
		return 0
	}
	cutoff := float64(tick+1) * m.tauMS
	h := &m.heaps[shard]
	n := 0
	for len(*h) > 0 && (*h)[0].ArrivalMS < cutoff {
		fn(h.pop())
		n++
	}
	return n
}

// SettleDelivered subtracts the tick's popped message count from the
// in-flight gauge (called once, serially, after the transit merge).
func (m *Model) SettleDelivered(n int) { m.inFlight -= n }

// InFlight returns the number of messages currently in transit.
func (m *Model) InFlight() int { return m.inFlight }

// SetLatencyFactor scales every subsequent message's propagation delay
// (1 restores the baseline). Messages already in flight keep the delay
// they were injected with.
func (m *Model) SetLatencyFactor(f float64) { m.latFactor = f }

// SetLossBurst overrides the loss probability with p until (exclusive)
// tick until.
func (m *Model) SetLossBurst(p float64, until int) {
	m.burstLoss, m.burstUntil = p, until
}

// LossProb returns the per-message loss probability in effect at tick.
func (m *Model) LossProb(tick int) float64 {
	if tick < m.burstUntil {
		return m.burstLoss
	}
	return m.cfg.Loss
}

// Partition splits the overlay in two: every node is hashed onto a side
// by the partition seed, with frac the expected fraction on side 1, and
// messages crossing the boundary are dropped at delivery time (in-flight
// messages included). The side assignment is a pure function of (seed,
// node id), so nodes that join during the partition land on a
// deterministic side too.
func (m *Model) Partition(frac float64, seed int64) {
	m.partitioned = true
	m.partByPing = false
	m.partFrac = frac
	m.partSeed = uint64(seed)
}

// PartitionByPing splits the overlay by round-trip ping instead of a
// uniform hash: the configured ping table is cut at its frac-quantile,
// the low-ping cluster lands on side 1 (CliqueStream-style latency
// islands: nearby peers stay connected to each other), and ties exactly
// at the cut are broken by the seeded hash so the expected side-1 share
// is still frac. Nodes without a ping entry carry the default ping, so
// churn joiners land on a deterministic side too. With an empty ping
// table every node ties at the cut and the split degenerates to the
// uniform hash.
func (m *Model) PartitionByPing(frac float64, seed int64) {
	m.partitioned = true
	m.partByPing = true
	m.partFrac = frac
	m.partSeed = uint64(seed)

	pings := append([]int(nil), m.cfg.PingMS...)
	sort.Ints(pings)
	want := int(frac * float64(len(pings)))
	if len(pings) == 0 || want >= len(pings) {
		// Nothing to cut below: every node ties at the default ping and
		// the hash tiebreak carries the whole split.
		m.partPingCut = m.cfg.DefaultPingMS
		m.partTieFrac = frac
		return
	}
	cut := pings[want]
	below, at := 0, 0
	for _, p := range pings {
		switch {
		case p < cut:
			below++
		case p == cut:
			at++
		}
	}
	m.partPingCut = cut
	m.partTieFrac = 0
	if at > 0 {
		m.partTieFrac = float64(want-below) / float64(at)
	}
}

// Heal ends the partition: every link carries traffic again.
func (m *Model) Heal() { m.partitioned = false }

// Side returns the node's partition side (0 or 1); 0 for everyone when
// no partition is active.
func (m *Model) Side(n overlay.NodeID) int {
	if !m.partitioned {
		return 0
	}
	if m.partByPing {
		switch p := m.Ping(n); {
		case p < m.partPingCut:
			return 1
		case p > m.partPingCut:
			return 0
		}
		if m.hashFrac(n) < m.partTieFrac {
			return 1
		}
		return 0
	}
	if m.hashFrac(n) < m.partFrac {
		return 1
	}
	return 0
}

// hashFrac maps a node id onto [0, 1) via the seeded splitmix64 hash —
// the uniform side assignment, and the tie-break of the ping split.
func (m *Model) hashFrac(n overlay.NodeID) float64 {
	h := splitmix64(m.partSeed ^ uint64(n))
	return float64(h>>11) / (1 << 53)
}

// Blocked reports whether the link between two nodes is severed by the
// active partition. Buffer maps, requests and data all stop crossing a
// severed link.
func (m *Model) Blocked(a, b overlay.NodeID) bool {
	return m.partitioned && m.Side(a) != m.Side(b)
}

// splitmix64 is the same finalizer the engine's SeedFor uses — a cheap,
// well-mixed 64-bit permutation for the side assignment hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// msgHeap is a binary min-heap of in-flight messages ordered by
// (ArrivalMS, seq): the injection sequence tiebreak makes the pop order
// of equal-timestamp messages a pure function of the push order.
type msgHeap []Message

func (h msgHeap) less(i, j int) bool {
	if h[i].ArrivalMS != h[j].ArrivalMS {
		return h[i].ArrivalMS < h[j].ArrivalMS
	}
	return h[i].seq < h[j].seq
}

func (h *msgHeap) push(m Message) {
	*h = append(*h, m)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *msgHeap) pop() Message {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && (*h).less(l, smallest) {
			smallest = l
		}
		if r < last && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
}
