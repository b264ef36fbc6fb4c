package experiment

import (
	"math"
	"testing"

	"gossipstream/internal/sim"
	"gossipstream/internal/stats"
)

func fakeResult(alg string, finish, prepare float64, control, data int64) *sim.Result {
	return &sim.Result{
		Algorithm: alg,
		Windows: []*sim.SwitchMetrics{{
			Kind:           "switch",
			Nodes:          100,
			Cohort:         98,
			FinishS1Times:  []float64{finish - 1, finish, finish + 1},
			PrepareS2Times: []float64{prepare - 2, prepare, prepare + 2},
			ControlBits:    control,
			DataBits:       data,
		}},
	}
}

func TestAggregateBySize(t *testing.T) {
	samples := []PairSample{
		{N: 500, Fast: fakeResult("fast", 10, 12, 620, 62000), Normal: fakeResult("normal", 9, 16, 620, 62000)},
		{N: 500, Fast: fakeResult("fast", 12, 14, 620, 62000), Normal: fakeResult("normal", 11, 18, 620, 62000)},
		{N: 100, Fast: fakeResult("fast", 6, 8, 310, 31000), Normal: fakeResult("normal", 5, 10, 310, 31000)},
	}
	rows := AggregateBySize(samples)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].N != 100 || rows[1].N != 500 {
		t.Fatalf("rows not sorted by N: %v, %v", rows[0].N, rows[1].N)
	}
	r := rows[1]
	if r.Samples != 2 {
		t.Errorf("samples = %d", r.Samples)
	}
	if math.Abs(r.FastPrepareS2-13) > 1e-9 {
		t.Errorf("fast prepare = %v, want 13", r.FastPrepareS2)
	}
	if math.Abs(r.NormalPrepareS2-17) > 1e-9 {
		t.Errorf("normal prepare = %v, want 17", r.NormalPrepareS2)
	}
	wantRed := (17.0 - 13.0) / 17.0
	if math.Abs(r.Reduction-wantRed) > 1e-9 {
		t.Errorf("reduction = %v, want %v", r.Reduction, wantRed)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestAverageSeries(t *testing.T) {
	a := &stats.Series{}
	b := &stats.Series{}
	for x := 1.0; x <= 5; x++ {
		a.Append(x, 1.0)
	}
	for x := 1.0; x <= 3; x++ {
		b.Append(x, 0.0)
	}
	avg := AverageSeries("avg", []*stats.Series{a, b})
	if avg.Len() != 5 {
		t.Fatalf("averaged length = %d, want 5", avg.Len())
	}
	// Where both exist: 0.5; past b's end its last value (0) carries.
	if _, y := avg.At(0); y != 0.5 {
		t.Errorf("avg[0] = %v, want 0.5", y)
	}
	if _, y := avg.At(4); y != 0.5 {
		t.Errorf("avg[4] = %v, want 0.5 (carry-forward)", y)
	}
}

func TestAverageSeriesEmpty(t *testing.T) {
	avg := AverageSeries("none", nil)
	if avg.Len() != 0 {
		t.Error("empty input must yield empty series")
	}
	avg = AverageSeries("nil-members", []*stats.Series{nil, {}})
	if avg.Len() != 0 {
		t.Error("nil members must be skipped")
	}
}
