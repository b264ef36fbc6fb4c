// Package bandwidth models node link capacities: the heterogeneous
// inbound/outbound rate assignment of Section 5.1 and per-period transfer
// budgets.
//
// The paper's setup: streaming rate 300 kbps, 30 kb segments (p = 10
// segments/second); node inbound rates drawn from [300 kbps, 1 Mbps] — in
// segment units I ∈ [10, 33] — with an average of 450 kbps (I = 15);
// outbound rates "alike"; sources have zero inbound and a much larger
// outbound.
package bandwidth

import (
	"fmt"
	"math"
	"math/rand"
)

// Canonical segment-unit constants from Section 5.1.
const (
	// SegmentKb is the payload of one data segment, kilobits.
	SegmentKb = 30
	// PlayRate is p: segments played per second.
	PlayRate = 10
	// MinRate and MaxRate bound node rates in segments/second
	// (300 kbps and 1 Mbps over 30 kb segments).
	MinRate = 10
	MaxRate = 33
	// MeanRate is the target average inbound rate (450 kbps).
	MeanRate = 15
)

// Profile is one node's link capacity in segments/second.
type Profile struct {
	In  float64
	Out float64
}

// SourceProfile returns the capacity profile of a streaming source: zero
// inbound, 6p outbound ("the source node has zero inbound rate and much
// larger outbound rate", Section 5.1).
func SourceProfile() Profile {
	return Profile{In: 0, Out: 6 * PlayRate}
}

// DrawRate samples one rate from the paper's distribution: support
// [MinRate, MaxRate] with mean MeanRate. A uniform draw over [10, 33]
// would average 21.5, so the paper's stated mean of 15 implies a
// low-skewed distribution; we use MinRate plus a truncated exponential
// with mean 5 capped at MaxRate-MinRate, whose mean is
// 10 + 5·(1-e^(-23/5)) ≈ 14.95.
func DrawRate(rng *rand.Rand) float64 {
	const tailMean = MeanRate - MinRate
	const tailCap = MaxRate - MinRate
	x := rng.ExpFloat64() * tailMean
	if x > tailCap {
		x = tailCap
	}
	return MinRate + math.Floor(x) // integer segment rates, as in the paper
}

// Assign draws independent inbound and outbound profiles for n nodes.
func Assign(n int, rng *rand.Rand) []Profile {
	out := make([]Profile, n)
	for i := range out {
		out[i] = Profile{In: DrawRate(rng), Out: DrawRate(rng)}
	}
	return out
}

// Budget is a per-period transfer allowance with fractional carry: each
// period Refill adds rate·τ tokens (carrying sub-segment remainders), and
// Take spends whole segments.
type Budget struct {
	rate   float64
	tokens float64
}

// NewBudget returns a budget for the given rate (segments/second).
func NewBudget(rate float64) *Budget {
	if rate < 0 {
		panic(fmt.Sprintf("bandwidth: negative rate %v", rate))
	}
	return &Budget{rate: rate}
}

// Rate returns the configured rate.
func (b *Budget) Rate() float64 { return b.rate }

// SetRate changes the rate (used when a peer is promoted to source).
func (b *Budget) SetRate(rate float64) {
	if rate < 0 {
		panic(fmt.Sprintf("bandwidth: negative rate %v", rate))
	}
	b.rate = rate
}

// Refill starts a new period of length tau seconds. Unused tokens from the
// previous period are discarded (link capacity does not accumulate), but
// the fractional part carries so non-integer rate·τ products average out.
func (b *Budget) Refill(tau float64) {
	frac := b.tokens - math.Floor(b.tokens)
	if b.tokens <= 0 {
		frac = 0
	}
	b.tokens = b.rate*tau + frac
}

// Available returns the whole segments spendable this period.
func (b *Budget) Available() int { return int(b.tokens) }

// Take spends n segments, reporting false (and spending nothing) when the
// budget is insufficient.
func (b *Budget) Take(n int) bool {
	if n < 0 {
		panic(fmt.Sprintf("bandwidth: Take(%d)", n))
	}
	if float64(n) > b.tokens {
		return false
	}
	b.tokens -= float64(n)
	return true
}

// Refund returns n previously taken segments to the budget (a tentative
// grant that did not commit). Refunding more than was taken this period
// is a programming error the type cannot detect cheaply; callers pair
// every Refund with an earlier successful Take.
func (b *Budget) Refund(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bandwidth: Refund(%d)", n))
	}
	b.tokens += float64(n)
}

// BitsForSegments converts a segment count to payload bits (30 kb = 30·1024
// bits per segment, the convention of Section 5.3's overhead arithmetic).
func BitsForSegments(n int) int64 {
	return int64(n) * SegmentKb * 1024
}
