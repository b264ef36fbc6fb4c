package experiment

import (
	"strings"
	"testing"

	"gossipstream/internal/stats"
)

func TestLineRendersAllSeries(t *testing.T) {
	a := &stats.Series{Label: "alpha"}
	b := &stats.Series{Label: "beta"}
	for x := 0.0; x <= 10; x++ {
		a.Append(x, x)
		b.Append(x, 10-x)
	}
	out := lineChart("demo", 40, 10, a, b)
	if !strings.Contains(out, "demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("series glyphs missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Errorf("chart too short: %d lines", len(lines))
	}
}

func TestLineEmpty(t *testing.T) {
	out := lineChart("empty", 40, 10, &stats.Series{Label: "x"})
	if !strings.Contains(out, "no data") {
		t.Error("empty chart must say so")
	}
}

func TestLineConstantSeries(t *testing.T) {
	s := &stats.Series{Label: "flat"}
	for x := 0.0; x < 5; x++ {
		s.Append(x, 1.0)
	}
	out := lineChart("flat", 30, 6, s)
	if !strings.Contains(out, "*") {
		t.Error("constant series not drawn")
	}
}

func TestBars(t *testing.T) {
	groups := []barGroup{
		{Label: "N=100", Values: []float64{5, 4, 6, 8}},
		{Label: "N=500", Values: []float64{10, 9, 11, 14}},
	}
	names := []string{"a", "b", "c", "d"}
	out := barChart("fig", names, groups, 40)
	for _, want := range []string{"fig", "N=100", "N=500", "a", "d", "="} {
		if !strings.Contains(out, want) {
			t.Errorf("%q missing from output", want)
		}
	}
	// The largest value gets the longest bar.
	lines := strings.Split(out, "\n")
	longest, longestIdx := 0, -1
	for i, l := range lines {
		n := strings.Count(l, "=")
		if n > longest {
			longest, longestIdx = n, i
		}
	}
	if longestIdx < 0 || !strings.Contains(lines[longestIdx], "14") {
		t.Errorf("longest bar is not the max value: %q", lines[longestIdx])
	}
}

func TestBarsZeroValues(t *testing.T) {
	out := barChart("z", []string{"only"}, []barGroup{{Label: "g", Values: []float64{0}}}, 20)
	if !strings.Contains(out, "0.000") {
		t.Error("zero value not rendered")
	}
}
