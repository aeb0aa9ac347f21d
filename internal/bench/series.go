// Package bench provides the sweep harness the VIBe suite reports with:
// named (x, y) series, size ladders, and a group's wide-table, CSV and
// ASCII-chart renderings. Series and Group carry the results-repository
// JSON schema.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"vibe/internal/table"
)

// Series is a named curve, e.g. "bvia latency vs message size", held as
// parallel x and y columns: the layout the results repository stores.
type Series struct {
	Name   string    `json:"name"`
	XLabel string    `json:"xlabel"`
	YLabel string    `json:"ylabel"`
	X      []float64 `json:"x"`
	Y      []float64 `json:"y"`
}

// NewSeries returns an empty series.
func NewSeries(name, xlabel, ylabel string) *Series {
	return &Series{Name: name, XLabel: xlabel, YLabel: ylabel}
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// At returns the y value at exactly x, and whether it exists.
func (s *Series) At(x float64) (float64, bool) {
	for i, px := range s.X {
		if px == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// MustAt is At, panicking when x is absent (calibration tests use exact
// ladder points).
func (s *Series) MustAt(x float64) float64 {
	y, ok := s.At(x)
	if !ok {
		panic(fmt.Sprintf("bench: series %q has no point at x=%v", s.Name, x))
	}
	return y
}

// SizeLadder is the paper's message-size x-axis: powers of four from 4 B
// plus the large sizes its figures label (12288, 20480, 28672).
func SizeLadder() []int {
	return []int{4, 16, 64, 256, 1024, 4096, 12288, 20480, 28672}
}

// SmallLadder is a shorter ladder for expensive sweeps.
func SmallLadder() []int {
	return []int{4, 64, 1024, 4096, 28672}
}

// Group is an ordered set of series sharing axes (one figure).
type Group struct {
	Title  string    `json:"title"`
	Series []*Series `json:"series"`
}

// NewGroup returns an empty group.
func NewGroup(title string) *Group { return &Group{Title: title} }

// Add appends series to the group and returns the group.
func (g *Group) Add(ss ...*Series) *Group {
	g.Series = append(g.Series, ss...)
	return g
}

// Find returns the series with the given name, or nil.
func (g *Group) Find(name string) *Series {
	for _, s := range g.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Table renders the group as a wide text table titled with the group and
// its y label: the x column plus one column per series, one row per x in
// the union of the series' x values, a blank cell where a series has no
// point at that x.
func (g *Group) Table() *table.Table {
	return g.wide(table.FormatFloat)
}

// RenderCSV writes the group as a wide CSV with the rows of Table, values
// in %g form.
func (g *Group) RenderCSV(w io.Writer) {
	if len(g.Series) == 0 {
		return
	}
	g.wide(func(v float64) string { return fmt.Sprintf("%g", v) }).RenderCSV(w)
}

// wide lays the group out one row per x in the sorted union of the
// series' x values, formatting every number with format.
func (g *Group) wide(format func(float64) string) *table.Table {
	if len(g.Series) == 0 {
		return table.New(g.Title)
	}
	headers := []string{g.Series[0].XLabel}
	xset := map[float64]bool{}
	for _, s := range g.Series {
		headers = append(headers, s.Name)
		for _, x := range s.X {
			xset[x] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	t := table.New(g.Title+" ("+g.Series[0].YLabel+")", headers...)
	for _, x := range xs {
		row := []string{format(x)}
		for _, s := range g.Series {
			cell := ""
			if y, ok := s.At(x); ok {
				cell = format(y)
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RenderChart draws the group as a crude log-x ASCII chart, one mark per
// series, for terminal inspection of curve shapes.
func (g *Group) RenderChart(w io.Writer, width, height int) {
	if len(g.Series) == 0 {
		return
	}
	marks := "ox+*#@%&"
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range g.Series {
		for i := range s.X {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if minY > 0 {
		minY = 0
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	xpos := func(x float64) int {
		// Log scale when the x range spans more than a decade (message
		// sizes); linear otherwise.
		if minX > 0 && maxX/minX > 10 {
			return int(math.Log(x/minX) / math.Log(maxX/minX) * float64(width-1))
		}
		return int((x - minX) / (maxX - minX) * float64(width-1))
	}
	for si, s := range g.Series {
		m := marks[si%len(marks)]
		for i := range s.X {
			col := xpos(s.X[i])
			row := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = m
			}
		}
	}
	fmt.Fprintf(w, "%s (y: %s, max %.4g; x: %s, %.4g..%.4g)\n", g.Title, g.Series[0].YLabel, maxY, g.Series[0].XLabel, minX, maxX)
	for _, row := range grid {
		fmt.Fprintf(w, "|%s|\n", string(row))
	}
	var legend []string
	for si, s := range g.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", marks[si%len(marks)], s.Name))
	}
	fmt.Fprintln(w, strings.Join(legend, "  "))
}
