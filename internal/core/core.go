// Package core implements the paper's primary contribution: the fast
// source switch algorithm (Section 4) and the normal switch baseline it is
// evaluated against (Section 5.1).
//
// Per scheduling period τ every node independently:
//
//  1. builds the candidate set — undelivered segments of the old source S1
//     it still needs for playback, and undelivered segments among the
//     first Qs of the new source S2;
//  2. scores each candidate with urgency (eq. 7), rarity (eq. 8) and
//     priority = max(urgency, rarity) (eq. 9);
//  3. greedily assigns a supplier to every candidate in priority order,
//     tracking per-supplier queueing time (Algorithm 1, step 1) — this
//     yields the schedulable sets O1 and O2;
//  4. splits its inbound rate I into I1/I2 using the closed-form optimum
//     r1 (eq. 4) degraded through the four supply-constrained cases of
//     Section 4, and requests the first I1·τ segments of O1 and the first
//     I2·τ segments of O2 (Algorithm 1, step 2).
//
// The normal switch algorithm shares steps 1 and 3 but ranks every S1
// segment above every S2 segment and allocates inbound to S1 first.
package core

import (
	"fmt"
	"math"
	"slices"

	"gossipstream/internal/model"
	"gossipstream/internal/segment"
)

// Stream tags which source a candidate belongs to.
type Stream int

// The two streams of a switch in progress.
const (
	StreamOld Stream = 1 // S1, the source being played out
	StreamNew Stream = 2 // S2, the source being prepared
)

// String implements fmt.Stringer.
func (s Stream) String() string {
	switch s {
	case StreamOld:
		return "S1"
	case StreamNew:
		return "S2"
	}
	return fmt.Sprintf("S?%d", int(s))
}

// SupplierID names a neighbor in the enclosing system's id space.
type SupplierID int

// View is the availability information a node has about one neighbor,
// obtained from the periodic buffer-map exchange. *buffer.Buffer satisfies
// it (the simulator's zero-staleness shortcut for a same-tick snapshot),
// and so does *buffer.Map (the decoded wire form).
type View interface {
	// Has reports whether the neighbor advertises the segment.
	Has(id segment.ID) bool
	// AvailWords is Has in bulk: it fills dst with the availability of the
	// absolute ids [w0*64, (w0+len(dst))*64), bit k of dst[i] being
	// Has((w0+i)*64 + k). Every view answers in this one alignment, so
	// words of different neighbors combine with plain bitwise operators.
	// It must not retain dst.
	AvailWords(w0 int, dst []uint64)
	// PositionFromTail is the segment's FIFO position p_ij in the
	// neighbor's buffer: 1 = newest, Cap() = next to be evicted; 0 if
	// absent.
	PositionFromTail(id segment.ID) int
	// Cap is the neighbor's buffer capacity B.
	Cap() int
}

// Supplier is one neighbor considered as a segment source.
type Supplier struct {
	ID   SupplierID
	Rate float64 // R(j): the neighbor's sending rate, segments/second
	View View
}

// MaxSuppliers bounds the neighbor count a single plan can consider; the
// candidate set tracks supplier membership in a 64-bit mask. The paper
// uses M=5 neighbors, so the bound is generous.
const MaxSuppliers = 64

// Env is the complete local knowledge a node has when its scheduler runs.
// The enclosing simulator (or application) fills it each period.
type Env struct {
	Tau     float64 // scheduling period τ, seconds
	P       float64 // playback rate p, segments/second
	Q       float64 // S1 consecutive-segment playback threshold
	Inbound float64 // total inbound rate I, segments/second

	// Playhead is idplay: the id of the next segment playback will
	// consume.
	Playhead segment.ID

	// NeedOld lists the undelivered segments of the stream currently being
	// played (ascending, no duplicates). During a switch this is S1's
	// remaining tail; in steady state it is the window behind the live
	// edge.
	NeedOld []segment.ID

	// NeedNew lists the undelivered segments among the first Qs of the new
	// source (ascending). Empty while no switch is in sight.
	NeedNew []segment.ID

	Suppliers []Supplier

	// words is BuildCandidates' availability scratch: the union row, then
	// one row of bitmap words per supplier. It lives here, reused across
	// calls, because a buffer handed to the View interface escapes — a
	// per-call array would be a heap allocation per plan. Callers that
	// refill an Env each period must assign its fields rather than
	// overwrite the struct, or the scratch is reallocated every time.
	words []uint64
}

// Candidate is a scored, supplier-annotated segment the scheduler may
// request this period.
type Candidate struct {
	ID       segment.ID
	Stream   Stream
	Urgency  float64
	Rarity   float64
	Priority float64
	MaxRate  float64 // Ri = max supplier rate (eq. 6)
	owners   uint64  // bitmask over Env.Suppliers
}

// HasSupplier reports whether supplier index i can provide the candidate.
func (c *Candidate) HasSupplier(i int) bool { return c.owners&(1<<uint(i)) != 0 }

// UrgencySaturation is the finite stand-in for "deadline already due":
// eq. (7) divides by the slack t_i, which can reach zero or go negative
// for a segment the playhead is waiting on. Any saturated candidate
// outranks every unsaturated one.
const UrgencySaturation = 1e9

// RarityMode selects how rarity is computed — eq. (8) by default, or the
// "traditional" 1/n_i the paper argues against (kept for the ablation
// benchmarks).
type RarityMode int

// Rarity computation variants.
const (
	RarityEviction    RarityMode = iota // eq. (8): Π p_ij / B
	RarityTraditional                   // 1/n_i
)

// PriorityMode selects how urgency and rarity combine — eq. (9) by
// default; the single-term variants exist for the ablation benchmarks.
type PriorityMode int

// Priority combination variants.
const (
	PriorityMax         PriorityMode = iota // eq. (9): max(urgency, rarity)
	PriorityUrgencyOnly                     // urgency
	PriorityRarityOnly                      // rarity
)

// ScoreOptions parameterize candidate scoring.
type ScoreOptions struct {
	Rarity   RarityMode
	Priority PriorityMode
}

// BuildCandidates scores every needed segment that at least one supplier
// advertises, appending to dst (which may be nil) and returning it.
// Candidates no supplier holds are dropped — they cannot be scheduled this
// period. They come out in Env order: NeedOld's ascending ids, then
// NeedNew's.
func BuildCandidates(env *Env, opt ScoreOptions, dst []Candidate) []Candidate {
	if len(env.Suppliers) > MaxSuppliers {
		panic(fmt.Sprintf("core: %d suppliers exceeds MaxSuppliers=%d", len(env.Suppliers), MaxSuppliers))
	}
	dst = appendScored(env, opt, dst, env.NeedOld, StreamOld)
	dst = appendScored(env, opt, dst, env.NeedNew, StreamNew)
	return dst
}

// appendScored scores one stream's needed ids. Availability is read in
// bulk: each usable supplier's bitmap words over the span of need are
// fetched once (one interface call per supplier, not one per id and
// supplier) and ORed into a union row, so an id nobody holds — the common
// case by far — costs one bit test. Suppliers are visited in index order
// on a hit, which keeps eq. (8)'s float product order, and so the plans,
// identical to probing Has id by id.
func appendScored(env *Env, opt ScoreOptions, dst []Candidate, need []segment.ID, stream Stream) []Candidate {
	if len(need) == 0 {
		return dst
	}
	// need is ascending (Env), so its ends bound the id span; an id
	// outside them would index past the union row and panic.
	w0 := int(need[0] >> 6)
	nw := int(need[len(need)-1]>>6) - w0 + 1
	nsup := len(env.Suppliers)
	if total := (nsup + 1) * nw; cap(env.words) < total {
		env.words = make([]uint64, total)
	} else {
		env.words = env.words[:total]
	}
	union, rows := env.words[:nw], env.words[nw:]
	clear(union)
	for i := range env.Suppliers {
		sup, row := &env.Suppliers[i], rows[i*nw:(i+1)*nw]
		if sup.Rate <= 0 || sup.View == nil {
			clear(row)
			continue
		}
		sup.View.AvailWords(w0, row)
		for k, w := range row {
			union[k] |= w
		}
	}
	for _, id := range need {
		off := int(id) - w0<<6
		wi, bit := off>>6, uint64(1)<<uint(off&63)
		if union[wi]&bit == 0 {
			continue
		}
		c := Candidate{ID: id, Stream: stream}
		n := 0
		rarity := 1.0
		for i := range env.Suppliers {
			if rows[i*nw+wi]&bit == 0 {
				continue
			}
			sup := &env.Suppliers[i]
			c.owners |= 1 << uint(i)
			n++
			if sup.Rate > c.MaxRate {
				c.MaxRate = sup.Rate
			}
			if opt.Rarity == RarityEviction {
				b := sup.View.Cap()
				pos := sup.View.PositionFromTail(id)
				if b > 0 && pos > 0 {
					rarity *= float64(pos) / float64(b)
				}
			}
		}
		if opt.Rarity == RarityTraditional {
			rarity = 1 / float64(n)
		}
		c.Rarity = rarity
		c.Urgency = urgency(env, id, c.MaxRate)
		switch opt.Priority {
		case PriorityUrgencyOnly:
			c.Priority = c.Urgency
		case PriorityRarityOnly:
			c.Priority = c.Rarity
		default:
			c.Priority = math.Max(c.Urgency, c.Rarity)
		}
		dst = append(dst, c)
	}
	return dst
}

// urgency implements eq. (7): t_i = (id_i - id_play)/p - 1/R_i, and
// urgency_i = 1/t_i, saturated when the slack is non-positive.
func urgency(env *Env, id segment.ID, maxRate float64) float64 {
	if env.P <= 0 || maxRate <= 0 {
		return UrgencySaturation
	}
	slack := float64(id-env.Playhead)/env.P - 1/maxRate
	if slack <= 0 {
		return UrgencySaturation
	}
	u := 1 / slack
	if u > UrgencySaturation {
		return UrgencySaturation
	}
	return u
}

// Request is one scheduled segment pull.
type Request struct {
	Segment  segment.ID
	Stream   Stream
	Supplier SupplierID
	// SupplierIndex is the position of Supplier in Env.Suppliers.
	SupplierIndex int
	// ExpectedAt is the expected receive offset within the period,
	// seconds: queueing at the supplier plus 1/R(j) transfer (Algorithm 1,
	// line 13-14).
	ExpectedAt float64
	Priority   float64
}

// Plan is the outcome of one scheduler run.
type Plan struct {
	// Requests to issue this period, at most Inbound·τ of them, ordered by
	// descending retrieval precedence.
	Requests []Request
	// O1 and O2 are the sizes of the schedulable sets (Algorithm 1 step 1)
	// before the rate split truncates them.
	O1, O2 int
	// Q1 and Q2 are the undelivered backlogs the split was computed from.
	Q1, Q2 int
	// Split records the I1/I2 decision and which of the four cases fired.
	// For the normal algorithm it reports the strict-priority allocation.
	Split model.Split
}

// reset clears a plan for reuse without freeing its backing arrays.
func (p *Plan) reset() {
	p.Requests = p.Requests[:0]
	p.O1, p.O2, p.Q1, p.Q2 = 0, 0, 0, 0
	p.Split = model.Split{}
}

// Algorithm is a pluggable per-node scheduler.
//
// Removing suppliers from an Env whose plan is empty, the rest unchanged,
// must leave the plan empty. FastSwitch (every option and ablation mode)
// and NormalSwitch request nothing exactly when the budget I·τ is below
// one or no candidate has a supplier that delivers within the period
// (1/R(j) ≤ τ), and fewer suppliers cannot change either. A driver may
// therefore skip re-planning a node whose suppliers only dropped out
// since an empty plan (the simulator's retry rounds do).
type Algorithm interface {
	// Name identifies the algorithm in metrics and tables.
	Name() string
	// Plan computes this period's requests into out (reused across calls).
	Plan(env *Env, out *Plan)
}

// assignment is Algorithm 1 step 1: greedy earliest-completion supplier
// selection with per-supplier queueing times. cands must already be in
// retrieval-priority order. The returned slices hold old-stream and
// new-stream requests in assignment order.
//
// Two practicalities refine the paper's pseudo-code. First, the period
// boundary is closed: a transfer expected to complete exactly at τ still
// counts (strict '<' would waste one slot per supplier every period).
// Second, each stream's assignment stops at the inbound budget I·τ — the
// node cannot retrieve more segments than that in total, and letting an
// abundant stream monopolize every supplier queue would report O=0 for
// the other stream even when neighbors hold its data, defeating the rate
// split the assignment exists to inform.
type assignment struct {
	queue [MaxSuppliers]float64 // τ(j), queueing time per supplier
	old   []Request
	fresh []Request
}

func (a *assignment) run(env *Env, cands []Candidate) {
	for i := range a.queue[:len(env.Suppliers)] {
		a.queue[i] = 0
	}
	a.old = a.old[:0]
	a.fresh = a.fresh[:0]
	budget := int(env.Inbound*env.Tau + 1e-9)
	for ci := range cands {
		c := &cands[ci]
		if c.Stream == StreamOld && len(a.old) >= budget {
			continue
		}
		if c.Stream == StreamNew && len(a.fresh) >= budget {
			continue
		}
		tmin := math.Inf(1)
		best := -1
		for si := range env.Suppliers {
			if !c.HasSupplier(si) {
				continue
			}
			sup := &env.Suppliers[si]
			ttrans := 1 / sup.Rate
			t := ttrans + a.queue[si]
			if t < tmin && t <= env.Tau+1e-9 {
				tmin = t
				best = si
			}
		}
		if best < 0 {
			continue // no supplier can deliver it within the period
		}
		a.queue[best] = tmin
		req := Request{
			Segment:       c.ID,
			Stream:        c.Stream,
			Supplier:      env.Suppliers[best].ID,
			SupplierIndex: best,
			ExpectedAt:    tmin,
			Priority:      c.Priority,
		}
		if c.Stream == StreamOld {
			a.old = append(a.old, req)
		} else {
			a.fresh = append(a.fresh, req)
		}
	}
}

// FastSwitch is the paper's algorithm. The zero value uses the paper's
// scoring (eq. 8 rarity, eq. 9 max-priority); the mode fields exist for
// the ablation experiments.
type FastSwitch struct {
	Options ScoreOptions
	// DisableSplit replaces the four-case optimal rate split with plain
	// global priority order (ablation: isolates the split's contribution).
	DisableSplit bool

	scratch []Candidate
	assign  assignment
}

var _ Algorithm = (*FastSwitch)(nil)

// Name implements Algorithm.
func (f *FastSwitch) Name() string { return "fast" }

// Plan implements Algorithm: the full Section 4 pipeline.
func (f *FastSwitch) Plan(env *Env, out *Plan) {
	out.reset()
	out.Q1, out.Q2 = len(env.NeedOld), len(env.NeedNew)
	f.scratch = BuildCandidates(env, f.Options, f.scratch[:0])
	cands := f.scratch
	sortByPriority(cands)
	f.assign.run(env, cands)
	o1, o2 := f.assign.old, f.assign.fresh
	out.O1, out.O2 = len(o1), len(o2)

	budget := int(env.Inbound*env.Tau + 1e-9)
	if budget <= 0 {
		return
	}
	var n1, n2 int
	if f.DisableSplit {
		// Ablation: merge the two sets purely by priority and take the
		// first `budget` entries.
		n1, n2 = takeByPriority(o1, o2, budget)
	} else {
		params := model.Params{
			Q:  env.Q,
			Q1: float64(out.Q1),
			Q2: float64(out.Q2),
			P:  env.P,
			I:  env.Inbound,
		}
		split := params.ConstrainedSplit(
			float64(out.O1)/env.Tau,
			float64(out.O2)/env.Tau,
		)
		out.Split = split
		// Integer application of the split, matching the paper's Figure 2
		// (I=7, r1≈4.6 → 4 old + 3 new): the old stream takes ⌊I1·τ⌋
		// slots, the new stream the complement, and any slots one set
		// cannot fill flow back to the other ("maximize the inbound
		// throughput", Section 4).
		n1 = min(len(o1), int(split.I1*env.Tau+1e-9))
		n2 = min(len(o2), budget-n1)
		n1 += min(len(o1)-n1, budget-n1-n2)
	}
	out.Requests = mergeByPriority(out.Requests, o1[:n1], o2[:n2])
}

// NormalSwitch is the baseline of Section 5.1: retrieve S1 segments in
// strict priority; give S2 only the leftover inbound rate.
type NormalSwitch struct {
	scratch []Candidate
	assign  assignment
}

var _ Algorithm = (*NormalSwitch)(nil)

// Name implements Algorithm.
func (n *NormalSwitch) Name() string { return "normal" }

// Plan implements Algorithm.
func (n *NormalSwitch) Plan(env *Env, out *Plan) {
	out.reset()
	out.Q1, out.Q2 = len(env.NeedOld), len(env.NeedNew)
	// Scoring is irrelevant to the normal ordering: all of S1 by deadline
	// (ascending id), then S2 by id. BuildCandidates already emits exactly
	// that order, the old stream's ascending need before the new one's;
	// the priorities are reported in the plan for observability.
	n.scratch = BuildCandidates(env, ScoreOptions{}, n.scratch[:0])
	n.assign.run(env, n.scratch)
	o1, o2 := n.assign.old, n.assign.fresh
	out.O1, out.O2 = len(o1), len(o2)

	budget := int(env.Inbound*env.Tau + 1e-9)
	if budget <= 0 {
		return
	}
	n1 := min(len(o1), budget)
	n2 := min(len(o2), budget-n1)
	out.Split = model.Split{
		I1:   float64(n1) / env.Tau,
		I2:   float64(n2) / env.Tau,
		Case: model.CaseBothLimited,
	}
	out.Requests = append(out.Requests, o1[:n1]...)
	out.Requests = append(out.Requests, o2[:n2]...)
}

// sortByPriority orders candidates by descending priority; ties prefer the
// old stream, then the lower id — a deterministic order that matches the
// paper's Figure 2 example. The generic stable sort produces the same
// permutation the reflection-based sort.SliceStable did (stability makes
// the output unique) without its two heap allocations per call — this
// runs once per node per round, the single hottest call site of a tick.
func sortByPriority(cands []Candidate) {
	slices.SortStableFunc(cands, func(a, b Candidate) int {
		switch {
		case a.Priority > b.Priority:
			return -1
		case a.Priority < b.Priority:
			return 1
		}
		if a.Stream != b.Stream {
			if a.Stream == StreamOld {
				return -1
			}
			return 1
		}
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// takeByPriority walks the two request lists in merged priority order and
// counts how many of each to take, up to budget.
func takeByPriority(o1, o2 []Request, budget int) (n1, n2 int) {
	for budget > 0 && (n1 < len(o1) || n2 < len(o2)) {
		take1 := n2 >= len(o2) ||
			(n1 < len(o1) && o1[n1].Priority >= o2[n2].Priority)
		if take1 {
			n1++
		} else {
			n2++
		}
		budget--
	}
	return n1, n2
}

// mergeByPriority appends the two lists to dst interleaved by descending
// priority (stable: o1 wins ties), mirroring the retrieval order of the
// paper's Figure 2.
func mergeByPriority(dst []Request, o1, o2 []Request) []Request {
	i, j := 0, 0
	for i < len(o1) || j < len(o2) {
		if j >= len(o2) || (i < len(o1) && o1[i].Priority >= o2[j].Priority) {
			dst = append(dst, o1[i])
			i++
		} else {
			dst = append(dst, o2[j])
			j++
		}
	}
	return dst
}
