// Parallel-source rate allocation — the extension the paper names as
// future work ("Next step we would try to extend our work to the scenario
// where multiple sources work in parallel", Section 6).
//
// With K sources streaming simultaneously, a node must divide its inbound
// rate I across K live streams so that no stream starves. Generalizing the
// serial model of Section 3: stream k has an undelivered backlog Q_k and a
// playback deadline horizon D_k (seconds until the backlog is due); the
// allocation should minimize the worst deadline overrun max_k(Q_k/I_k −
// D_k), subject to per-stream supply caps O_k and ΣI_k ≤ I. The optimum
// equalizes the weighted finish lateness across unconstrained streams —
// computed here by bisection on the common lateness (a water-filling
// argument: demand for rate is monotone in the target lateness).

package main

import (
	"fmt"
	"math"
)

// ParallelDemand describes one concurrently-live stream at a node.
type ParallelDemand struct {
	// Backlog is the number of undelivered segments the node still needs
	// (Q_k).
	Backlog float64
	// Deadline is the time in seconds until that backlog is due (D_k);
	// non-positive means "due now".
	Deadline float64
	// Supply caps the rate the neighborhood can deliver for this stream
	// (O_k); non-positive means unconstrained.
	Supply float64
}

// ParallelSplit allocates the inbound rate across parallel streams. It
// returns one rate per demand, with ΣI_k ≤ inbound and I_k ≤ O_k where a
// supply cap is set. Streams with zero backlog receive zero. The result
// minimizes max_k(Q_k/I_k − D_k) over feasible allocations.
func ParallelSplit(inbound float64, demands []ParallelDemand) ([]float64, error) {
	if inbound <= 0 {
		return nil, fmt.Errorf("ParallelSplit: inbound %v must be positive", inbound)
	}
	out := make([]float64, len(demands))
	active := 0
	for _, d := range demands {
		if d.Backlog > 0 {
			active++
		}
	}
	if active == 0 {
		return out, nil
	}

	// rateNeeded(k, L) is the rate stream k needs so its lateness equals
	// L: Q_k/I_k − D_k = L ⇒ I_k = Q_k/(D_k + L), clamped to its supply.
	rateNeeded := func(d ParallelDemand, lateness float64) float64 {
		if d.Backlog <= 0 {
			return 0
		}
		den := d.Deadline + lateness
		if den <= 0 {
			// Even infinite rate would miss by more than this lateness.
			return math.Inf(1)
		}
		r := d.Backlog / den
		if d.Supply > 0 && r > d.Supply {
			r = d.Supply
		}
		return r
	}
	total := func(lateness float64) float64 {
		sum := 0.0
		for _, d := range demands {
			sum += rateNeeded(d, lateness)
		}
		return sum
	}

	// Bisection: total demand decreases monotonically in the permitted
	// lateness. Find the smallest lateness whose demand fits in inbound.
	lo, hi := -minDeadline(demands)+1e-9, 1.0
	for total(hi) > inbound && hi < 1e9 {
		hi *= 2
	}
	for iter := 0; iter < 200 && hi-lo > 1e-9*math.Max(1, hi); iter++ {
		mid := (lo + hi) / 2
		if total(mid) > inbound {
			lo = mid
		} else {
			hi = mid
		}
	}
	used := 0.0
	for i, d := range demands {
		r := rateNeeded(d, hi)
		if math.IsInf(r, 1) {
			r = inbound - used // starved corner: give it whatever remains
		}
		out[i] = r
		used += r
	}
	// Distribute float slack to the most supply-limited backlogged stream
	// (work conservation).
	if slack := inbound - used; slack > 1e-12 {
		for i, d := range demands {
			if d.Backlog > 0 && (d.Supply <= 0 || out[i] < d.Supply) {
				grant := slack
				if d.Supply > 0 && out[i]+grant > d.Supply {
					grant = d.Supply - out[i]
				}
				out[i] += grant
				slack -= grant
				if slack <= 1e-12 {
					break
				}
			}
		}
	}
	return out, nil
}

func minDeadline(demands []ParallelDemand) float64 {
	m := math.Inf(1)
	for _, d := range demands {
		if d.Backlog > 0 && d.Deadline < m {
			m = d.Deadline
		}
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// ParallelLateness evaluates the worst-case lateness of an allocation:
// max_k(Q_k/I_k − D_k) over backlogged streams.
func ParallelLateness(rates []float64, demands []ParallelDemand) float64 {
	worst := math.Inf(-1)
	for i, d := range demands {
		if d.Backlog <= 0 {
			continue
		}
		var late float64
		if rates[i] <= 0 {
			late = math.Inf(1)
		} else {
			late = d.Backlog/rates[i] - d.Deadline
		}
		if late > worst {
			worst = late
		}
	}
	if math.IsInf(worst, -1) {
		return 0
	}
	return worst
}
