package core

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"gossipstream/internal/buffer"
	"gossipstream/internal/segment"
)

// referenceCandidates is the per-id scoring loop BuildCandidates used
// before availability was read in bulk, kept verbatim as the reference
// the word-parallel version must match element for element: one View.Has
// probe per needed id and supplier.
func referenceCandidates(env *Env, opt ScoreOptions, dst []Candidate) []Candidate {
	dst = referenceAppendScored(env, opt, dst, env.NeedOld, StreamOld)
	dst = referenceAppendScored(env, opt, dst, env.NeedNew, StreamNew)
	return dst
}

func referenceAppendScored(env *Env, opt ScoreOptions, dst []Candidate, need []segment.ID, stream Stream) []Candidate {
	for _, id := range need {
		c := Candidate{ID: id, Stream: stream}
		n := 0
		rarity := 1.0
		for i := range env.Suppliers {
			sup := &env.Suppliers[i]
			if sup.Rate <= 0 || sup.View == nil || !sup.View.Has(id) {
				continue
			}
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
		if n == 0 {
			continue
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

// randomNeed draws an ascending, duplicate-free need list of about n ids
// starting at lo; the stride mix leaves runs, holes and word-boundary
// crossings.
func randomNeed(rng *rand.Rand, lo segment.ID, n int) []segment.ID {
	var need []segment.ID
	for id := lo; len(need) < n; id += segment.ID(1 + rng.Intn(3)*rng.Intn(40)) {
		need = append(need, id)
	}
	return need
}

// randomEnv builds a seeded random scheduling environment: 0–64 suppliers
// holding random slices of the stream around the need windows, as live
// buffers or as decoded wire maps (whose anchors are not word-aligned),
// some with zero rate and some with no view at all.
func randomEnv(t *testing.T, rng *rand.Rand) *Env {
	const capacity = 600
	playhead := segment.ID(rng.Intn(4000))
	env := &Env{Tau: 1, P: 10, Q: 10, Inbound: 15, Playhead: playhead}
	// Need windows: sometimes empty, sometimes one id, sometimes starting
	// exactly on or just around a word boundary.
	oldLo := playhead
	switch rng.Intn(4) {
	case 0:
		oldLo = playhead &^ 63
	case 1:
		oldLo = playhead | 63
	}
	newLo := oldLo + segment.ID(300+rng.Intn(600))
	sizes := []int{0, 1, 2, 64, 65, 150, 600}
	env.NeedOld = randomNeed(rng, oldLo, sizes[rng.Intn(len(sizes))])
	env.NeedNew = randomNeed(rng, newLo, sizes[rng.Intn(len(sizes))]/4)

	nsup := []int{0, 1, 5, 20, 63, 64}[rng.Intn(6)]
	for s := 0; s < nsup; s++ {
		sup := Supplier{ID: SupplierID(s + 1), Rate: 1 + 20*rng.Float64()}
		b := buffer.New(capacity)
		// Holdings: a random stretch somewhere from well before the old
		// window to past the new one, filled mostly in order.
		start := oldLo - 200 + segment.ID(rng.Intn(900))
		if start < 0 {
			start = 0
		}
		density := rng.Float64()
		for i := 0; i < rng.Intn(2*capacity); i++ {
			if rng.Float64() < density {
				b.Insert(start + segment.ID(i))
			}
		}
		switch rng.Intn(8) {
		case 0:
			sup.View = nil
		case 1:
			sup.Rate, sup.View = 0, b
		case 2, 3, 4:
			sup.View = b
		default:
			img, err := b.Snapshot().Encode()
			if err != nil {
				t.Fatal(err)
			}
			m, err := buffer.DecodeMap(img, capacity)
			if err != nil {
				t.Fatal(err)
			}
			sup.View = m
		}
		env.Suppliers = append(env.Suppliers, sup)
	}
	return env
}

// TestBuildCandidatesMatchesPerIDReference is the differential pin of the
// word-parallel scoring: over seeded random environments and every
// scoring mode it must return the reference loop's slice element for
// element — ids, order, owner masks and floats compared exactly, because
// the plans downstream are required to be bit-identical.
func TestBuildCandidatesMatchesPerIDReference(t *testing.T) {
	opts := []ScoreOptions{
		{},
		{Rarity: RarityTraditional},
		{Priority: PriorityUrgencyOnly},
		{Rarity: RarityTraditional, Priority: PriorityRarityOnly},
	}
	rng := rand.New(rand.NewSource(20080913))
	var got, want []Candidate
	total, shared := 0, 0
	for trial := 0; trial < 400; trial++ {
		env := randomEnv(t, rng)
		for _, opt := range opts {
			want = referenceCandidates(env, opt, want[:0])
			// Reusing env across options also reuses its word scratch at
			// changing sizes.
			got = BuildCandidates(env, opt, got[:0])
			if len(got) != len(want) {
				t.Fatalf("trial %d opt %+v: %d candidates, reference has %d", trial, opt, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d opt %+v: candidate %d = %+v, reference %+v", trial, opt, i, got[i], want[i])
				}
				if bits.OnesCount64(want[i].owners) > 1 {
					shared++ // eq. (8) multiplied more than one factor
				}
			}
			total += len(want)
		}
	}
	if total == 0 || shared == 0 {
		t.Fatalf("%d candidates, %d with several owners: the comparison is vacuous", total, shared)
	}
	t.Logf("compared %d candidates, %d of them held by several suppliers", total, shared)
}

// TestBuildCandidatesEmitNormalOrder pins the order NormalSwitch plans
// in without sorting: every old-stream candidate before every new-stream
// one, ids strictly ascending within each stream. It holds over the
// differential environments and over the property test's variant, whose
// slowed suppliers drop some candidates, in every scoring mode.
func TestBuildCandidatesEmitNormalOrder(t *testing.T) {
	opts := []ScoreOptions{{}, {Rarity: RarityTraditional}, {Priority: PriorityUrgencyOnly}}
	rng := rand.New(rand.NewSource(20080915))
	var cands []Candidate
	streams := map[Stream]int{}
	for trial := 0; trial < 400; trial++ {
		env := randomEnv(t, rng)
		if trial%2 == 1 {
			for i := range env.Suppliers {
				if rng.Intn(2) == 0 {
					env.Suppliers[i].Rate *= 0.05
				}
			}
		}
		for _, opt := range opts {
			cands = BuildCandidates(env, opt, cands[:0])
			for i, c := range cands {
				streams[c.Stream]++
				if i == 0 {
					continue
				}
				prev := cands[i-1]
				if prev.Stream == StreamNew && c.Stream == StreamOld {
					t.Fatalf("trial %d opt %+v: old-stream candidate %d follows new-stream %d", trial, opt, c.ID, prev.ID)
				}
				if prev.Stream == c.Stream && prev.ID >= c.ID {
					t.Fatalf("trial %d opt %+v: %s candidate %d follows %d", trial, opt, c.Stream, c.ID, prev.ID)
				}
			}
		}
	}
	if streams[StreamOld] == 0 || streams[StreamNew] == 0 {
		t.Fatalf("candidates per stream %v: an order across streams went untested", streams)
	}
}
