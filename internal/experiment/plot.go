package experiment

import (
	"fmt"
	"math"
	"strings"

	"gossipstream/internal/stats"
)

// The figures render as ASCII charts so every figure of the paper can be
// eyeballed straight from a terminal: line charts for the ratio tracks
// (Figures 5/9) and grouped bars for the size sweeps (Figures 6-8, 10-12).

// lineChart renders one or more series as an ASCII line chart of the given
// width and height. Each series is drawn with its own glyph, in order:
// '*', 'o', '+', 'x'.
func lineChart(title string, width, height int, series ...*stats.Series) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for i := 0; i < s.Len(); i++ {
			x, y := s.At(i)
			if math.IsNaN(y) {
				continue
			}
			any = true
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if !any {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := 0; i < s.Len(); i++ {
			x, y := s.At(i)
			if math.IsNaN(y) {
				continue
			}
			c := int((x - minX) / (maxX - minX) * float64(width-1))
			r := height - 1 - int((y-minY)/(maxY-minY)*float64(height-1))
			grid[r][c] = g
		}
	}
	for r, row := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%7.3f ", maxY)
		case height - 1:
			label = fmt.Sprintf("%7.3f ", minY)
		}
		fmt.Fprintf(&b, "%s|%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "        +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "        %-*.1f%*.1f\n", width/2, minX, width-width/2, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "        %c %s\n", glyphs[si%len(glyphs)], s.Label)
	}
	return b.String()
}

// barGroup is one cluster of bars sharing an x label (one network size).
type barGroup struct {
	Label  string
	Values []float64
}

// barChart renders grouped horizontal bars with a shared scale. names label
// the bars within each group.
func barChart(title string, names []string, groups []barGroup, width int) string {
	if width < 20 {
		width = 20
	}
	maxV := 0.0
	for _, g := range groups {
		for _, v := range g.Values {
			if !math.IsNaN(v) && v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	nameW := 0
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, g := range groups {
		fmt.Fprintf(&b, "%s\n", g.Label)
		for i, v := range g.Values {
			name := ""
			if i < len(names) {
				name = names[i]
			}
			n := 0
			if !math.IsNaN(v) {
				n = int(v / maxV * float64(width))
			}
			fmt.Fprintf(&b, "  %-*s |%s %.3f\n", nameW, name, strings.Repeat("=", n), v)
		}
	}
	return b.String()
}
