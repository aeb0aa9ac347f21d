package bench

import (
	"reflect"
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("lat", "size", "us")
	s.Add(4, 10)
	s.Add(64, 12)
	if len(s.X) != 2 || s.X[1] != 64 || s.Y[0] != 10 {
		t.Fatalf("X, Y = %v %v", s.X, s.Y)
	}
	if y, ok := s.At(64); !ok || y != 12 {
		t.Fatalf("At(64) = %v %v", y, ok)
	}
	if _, ok := s.At(5); ok {
		t.Fatal("At missing x succeeded")
	}
	if s.MustAt(4) != 10 {
		t.Fatal("MustAt")
	}
}

func TestMustAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAt on missing x did not panic")
		}
	}()
	NewSeries("s", "x", "y").MustAt(1)
}

func TestLadders(t *testing.T) {
	l := SizeLadder()
	if l[0] != 4 || l[len(l)-1] != 28672 {
		t.Fatalf("SizeLadder = %v", l)
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatal("ladder not increasing")
		}
	}
	small := SmallLadder()
	if len(small) >= len(l) {
		t.Fatal("SmallLadder not smaller")
	}
	// Every small-ladder point is on the full ladder.
	on := map[int]bool{}
	for _, x := range l {
		on[x] = true
	}
	for _, x := range small {
		if !on[x] {
			t.Errorf("small ladder point %d missing from full ladder", x)
		}
	}
}

func TestGroup(t *testing.T) {
	a := NewSeries("a", "x", "y")
	a.Add(1, 10)
	a.Add(2, 20)
	b := NewSeries("b", "x", "y")
	b.Add(2, 200)
	b.Add(3, 300)
	g := NewGroup("g").Add(a, b)
	if g.Find("b") != b || g.Find("zz") != nil {
		t.Fatal("Find")
	}
	var sb strings.Builder
	g.RenderCSV(&sb)
	got := sb.String()
	want := "x,a,b\n1,10,\n2,20,200\n3,,300\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

// TestGroupTable checks the wide layout Table and RenderCSV share: rows
// are the sorted union of the series' x values, with a blank cell where a
// series has no point.
func TestGroupTable(t *testing.T) {
	a := NewSeries("a", "size", "us")
	a.Add(64, 1.5)
	a.Add(4, 10)
	b := NewSeries("b", "size", "us")
	b.Add(1024, 200)
	b.Add(64, 2.25)
	g := NewGroup("lat").Add(a, b)
	tb := g.Table()
	if tb.Title != "lat (us)" || !reflect.DeepEqual(tb.Headers, []string{"size", "a", "b"}) {
		t.Fatalf("title %q, headers %q", tb.Title, tb.Headers)
	}
	want := [][]string{{"4", "10", ""}, {"64", "1.50", "2.25"}, {"1024", "", "200"}}
	if !reflect.DeepEqual(tb.Rows, want) {
		t.Fatalf("rows = %q, want %q", tb.Rows, want)
	}
	var sb strings.Builder
	g.RenderCSV(&sb)
	if got, want := sb.String(), "size,a,b\n4,10,\n64,1.5,2.25\n1024,,200\n"; got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestEmptyGroupCSV(t *testing.T) {
	var sb strings.Builder
	NewGroup("e").RenderCSV(&sb)
	if sb.Len() != 0 {
		t.Fatalf("empty group rendered %q", sb.String())
	}
}

func TestChartRender(t *testing.T) {
	one := &Series{Name: "one", XLabel: "size", YLabel: "us", X: []float64{4, 64, 1024, 28672}, Y: []float64{10, 12, 40, 300}}
	two := &Series{Name: "two", XLabel: "size", YLabel: "us", X: []float64{4, 64, 1024, 28672}, Y: []float64{20, 25, 60, 200}}
	var b strings.Builder
	NewGroup("curve").Add(one, two).RenderChart(&b, 40, 8)
	out := b.String()
	if !strings.Contains(out, "curve") || !strings.Contains(out, "o=one") || !strings.Contains(out, "x=two") {
		t.Fatalf("chart missing pieces:\n%s", out)
	}
	if strings.Count(out, "\n") < 9 {
		t.Fatalf("chart too short:\n%s", out)
	}
	if !strings.Contains(out, "o") || !strings.Contains(out, "x") {
		t.Fatal("chart has no marks")
	}
}

func TestChartEmptyAndDegenerate(t *testing.T) {
	var b strings.Builder
	NewGroup("e").RenderChart(&b, 10, 4) // no series: no output
	if b.Len() != 0 {
		t.Fatalf("empty chart rendered %q", b.String())
	}
	s := NewSeries("s", "x", "y")
	s.Add(5, 0)                                    // single point, zero ranges
	NewGroup("flat").Add(s).RenderChart(&b, 10, 4) // must not panic or divide by zero
	if b.Len() == 0 {
		t.Fatal("degenerate chart rendered nothing")
	}
}
