package experiment

import (
	"fmt"
	"strings"

	"gossipstream/internal/stats"
)

// RatioTrack is the Figures 5/9 result: network-wide undelivered ratio of
// S1 and delivered ratio of S2 over time since the switch, for both
// algorithms, averaged over replicas.
type RatioTrack struct {
	N                int
	Dynamic          bool
	FastUndelivered  *stats.Series
	FastDelivered    *stats.Series
	NormalUndeliv    *stats.Series
	NormalDelivered  *stats.Series
	FastLastFinish   float64 // the "last node finishes S1" marker
	FastLastPrepare  float64
	NormalLastFinish float64
	NormalLastPrep   float64
}

// RunRatioTrack regenerates Figure 5 (static) or Figure 9 (dynamic) at
// one network size.
func (w Workload) RunRatioTrack(n int) (*RatioTrack, error) {
	w.Sizes = []int{n}
	w.TrackRatios = true
	samples, err := w.Sweep()
	if err != nil {
		return nil, err
	}
	rt := &RatioTrack{N: n, Dynamic: w.Base.ChurnLeave > 0 || w.Base.ChurnJoin > 0}
	var fu, fd, nu, nd []*stats.Series
	var flf, flp, nlf, nlp []float64
	for _, s := range samples {
		fast, normal := s.Fast.FirstSwitch(), s.Normal.FirstSwitch()
		fu = append(fu, fast.UndeliveredS1)
		fd = append(fd, fast.DeliveredS2)
		nu = append(nu, normal.UndeliveredS1)
		nd = append(nd, normal.DeliveredS2)
		flf = append(flf, fast.MaxFinishS1())
		flp = append(flp, fast.MaxPrepareS2())
		nlf = append(nlf, normal.MaxFinishS1())
		nlp = append(nlp, normal.MaxPrepareS2())
	}
	rt.FastUndelivered = AverageSeries("fast: undelivered S1", fu)
	rt.FastDelivered = AverageSeries("fast: delivered S2", fd)
	rt.NormalUndeliv = AverageSeries("normal: undelivered S1", nu)
	rt.NormalDelivered = AverageSeries("normal: delivered S2", nd)
	rt.FastLastFinish = stats.Mean(flf)
	rt.FastLastPrepare = stats.Mean(flp)
	rt.NormalLastFinish = stats.Mean(nlf)
	rt.NormalLastPrep = stats.Mean(nlp)
	return rt, nil
}

// Render draws the two panels of Figures 5/9 as ASCII charts.
func (rt *RatioTrack) Render() string {
	env := "static"
	fig := "Figure 5"
	if rt.Dynamic {
		env = "dynamic"
		fig = "Figure 9"
	}
	var b strings.Builder
	b.WriteString(lineChart(
		fmt.Sprintf("%s (top): undelivered ratio of S1, %s network, %d nodes", fig, env, rt.N),
		64, 12, rt.NormalUndeliv, rt.FastUndelivered))
	b.WriteString("\n")
	b.WriteString(lineChart(
		fmt.Sprintf("%s (bottom): delivered ratio of S2, %s network, %d nodes", fig, env, rt.N),
		64, 12, rt.FastDelivered, rt.NormalDelivered))
	fmt.Fprintf(&b, "\nlast node finishes S1:  normal=%.1fs fast=%.1fs\n", rt.NormalLastFinish, rt.FastLastFinish)
	fmt.Fprintf(&b, "last node prepares S2:  normal=%.1fs fast=%.1fs\n", rt.NormalLastPrep, rt.FastLastPrepare)
	return b.String()
}

// RunSizeSweep regenerates the size-sweep figures: 6/7/8 in a static
// environment, 10/11/12 with churn enabled.
func (w Workload) RunSizeSweep() ([]SizeRow, error) {
	samples, err := w.Sweep()
	if err != nil {
		return nil, err
	}
	return AggregateBySize(samples), nil
}

// FormatFinishPrepare renders the Figures 6/10 bar groups: per size, the
// four bars in the paper's order (normal finish S1, fast finish S1, fast
// prepare S2, normal prepare S2).
func FormatFinishPrepare(rows []SizeRow, dynamic bool) string {
	fig := "Figure 6 (static)"
	if dynamic {
		fig = "Figure 10 (dynamic)"
	}
	groups := make([]barGroup, 0, len(rows))
	for _, r := range rows {
		groups = append(groups, barGroup{
			Label: fmt.Sprintf("N=%d", r.N),
			Values: []float64{
				r.NormalFinishS1, r.FastFinishS1, r.FastPrepareS2, r.NormalPrepareS2,
			},
		})
	}
	return barChart(
		fig+": avg finishing time of S1 and preparing time of S2 (seconds)",
		[]string{"normal: finish S1", "fast:   finish S1", "fast:   prepare S2", "normal: prepare S2"},
		groups, 48)
}

// FormatSwitchTime renders the Figures 7/11 table: average switch time
// per algorithm and the reduction ratio.
func FormatSwitchTime(rows []SizeRow, dynamic bool) string {
	fig := "Figure 7 (static)"
	if dynamic {
		fig = "Figure 11 (dynamic)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: average switch time and reduction ratio\n", fig)
	fmt.Fprintf(&b, "%8s %10s %10s %12s\n", "N", "normal(s)", "fast(s)", "reduction")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %10.2f %10.2f %11.1f%%\n",
			r.N, r.NormalPrepareS2, r.FastPrepareS2, r.Reduction*100)
	}
	return b.String()
}

// FormatOverhead renders the Figures 8/12 table: communication overhead
// per algorithm and size.
func FormatOverhead(rows []SizeRow, dynamic bool) string {
	fig := "Figure 8 (static)"
	if dynamic {
		fig = "Figure 12 (dynamic)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: communication overhead (control bits / data bits)\n", fig)
	fmt.Fprintf(&b, "%8s %10s %10s\n", "N", "fast", "normal")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %10.4f %10.4f\n", r.N, r.FastOverhead, r.NormalOverhead)
	}
	return b.String()
}

// CSV renders the size rows as comma-separated values for downstream
// tooling.
func CSV(rows []SizeRow) string {
	var b strings.Builder
	b.WriteString("n,samples,fast_finish_s1,normal_finish_s1,fast_prepare_s2,normal_prepare_s2,reduction,fast_overhead,normal_overhead\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.6f,%.6f\n",
			r.N, r.Samples, r.FastFinishS1, r.NormalFinishS1,
			r.FastPrepareS2, r.NormalPrepareS2, r.Reduction,
			r.FastOverhead, r.NormalOverhead)
	}
	return b.String()
}
