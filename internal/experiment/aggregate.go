package experiment

import (
	"fmt"
	"math"
	"slices"

	"gossipstream/internal/sim"
	"gossipstream/internal/stats"
)

// Aggregation of simulation results across repeated runs: per-size
// means, reduction ratios, and point-wise series averaging for the
// figure tracks — the step between the raw sim.Result values and the
// experiment tables.

// PairSample is one (topology, seed) run of both algorithms on identical
// conditions.
type PairSample struct {
	N      int
	Fast   *sim.Result
	Normal *sim.Result
}

// SizeRow is the aggregate of all samples at one network size — one bar
// group of Figures 6/10, one point of Figures 7/8/11/12.
type SizeRow struct {
	N       int
	Samples int

	// Mean times in seconds since the switch.
	FastFinishS1    float64
	FastPrepareS2   float64
	NormalFinishS1  float64
	NormalPrepareS2 float64

	// Reduction is the paper's headline ratio:
	// (normal switch time − fast switch time) / normal switch time.
	Reduction float64

	// Communication overhead (control bits / data bits).
	FastOverhead   float64
	NormalOverhead float64

	// Completion diagnostics: cohort nodes that never prepared in-horizon
	// (should be zero in a healthy run).
	FastUnprepared   int
	NormalUnprepared int
}

// AggregateBySize groups samples by N and averages each group's metrics.
// Rows come back sorted by N ascending.
func AggregateBySize(samples []PairSample) []SizeRow {
	byN := map[int][]PairSample{}
	order := []int{}
	for _, s := range samples {
		if _, seen := byN[s.N]; !seen {
			order = append(order, s.N)
		}
		byN[s.N] = append(byN[s.N], s)
	}
	slices.Sort(order)
	rows := make([]SizeRow, 0, len(order))
	for _, n := range order {
		rows = append(rows, aggregateGroup(n, byN[n]))
	}
	return rows
}

func aggregateGroup(n int, group []PairSample) SizeRow {
	row := SizeRow{N: n, Samples: len(group)}
	var ff, fp, nf, np, fo, no []float64
	for _, s := range group {
		fast, normal := s.Fast.FirstSwitch(), s.Normal.FirstSwitch()
		ff = append(ff, fast.AvgFinishS1())
		fp = append(fp, fast.AvgPrepareS2())
		nf = append(nf, normal.AvgFinishS1())
		np = append(np, normal.AvgPrepareS2())
		fo = append(fo, fast.Overhead())
		no = append(no, normal.Overhead())
		row.FastUnprepared += fast.UnpreparedS2
		row.NormalUnprepared += normal.UnpreparedS2
	}
	row.FastFinishS1 = stats.Mean(ff)
	row.FastPrepareS2 = stats.Mean(fp)
	row.NormalFinishS1 = stats.Mean(nf)
	row.NormalPrepareS2 = stats.Mean(np)
	row.FastOverhead = stats.Mean(fo)
	row.NormalOverhead = stats.Mean(no)
	row.Reduction = stats.ReductionRatio(row.NormalPrepareS2, row.FastPrepareS2)
	return row
}

// String implements fmt.Stringer with the headline columns.
func (r SizeRow) String() string {
	return fmt.Sprintf("N=%-5d finishS1 fast=%.2f normal=%.2f | prepareS2 fast=%.2f normal=%.2f | reduction=%.1f%% | overhead fast=%.4f normal=%.4f",
		r.N, r.FastFinishS1, r.NormalFinishS1, r.FastPrepareS2, r.NormalPrepareS2,
		r.Reduction*100, r.FastOverhead, r.NormalOverhead)
}

// AverageSeries averages several series point-wise on a shared integer x
// grid (seconds). Series may have different lengths; each x averages the
// series that have a value there (carrying their last value forward so a
// finished run keeps contributing its terminal ratio).
func AverageSeries(label string, in []*stats.Series) *stats.Series {
	out := &stats.Series{Label: label}
	if len(in) == 0 {
		return out
	}
	maxX := 0.0
	for _, s := range in {
		if s == nil || s.Len() == 0 {
			continue
		}
		if x := s.X[s.Len()-1]; x > maxX {
			maxX = x
		}
	}
	for x := 1.0; x <= maxX+0.5; x++ {
		sum, cnt := 0.0, 0
		for _, s := range in {
			if s == nil || s.Len() == 0 {
				continue
			}
			v := s.YAt(x)
			if !math.IsNaN(v) {
				sum += v
				cnt++
			}
		}
		if cnt > 0 {
			out.Append(x, sum/float64(cnt))
		}
	}
	return out
}
