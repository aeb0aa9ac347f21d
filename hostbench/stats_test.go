package main

import (
	"fmt"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{seq(11), 90, 10},
		{seq(10), 90, 9.1},
		{seq(10), 100, 10},
		{seq(10), 0, 1},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 9, 3}); !near(got, 4) {
		t.Errorf("median = %g, want 4", got)
	}
}

// TestTailRule pins the reporting rule: the highest percentile with at
// least ten samples beyond it, and the maximum, flagged, when the sample
// count supports none.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		wantP  float64
		wantV  float64
		wantOK bool
	}{
		{0, 100, 0, false},
		{10, 100, 10, false},
		{11, 100.0 / 11, 1, true},
		{20, 50, 10, true},
		{100, 90, 90, true},
		{1000, 99, 990, true},
	}
	for _, c := range cases {
		xs := seq(c.n)
		p, v, ok := tail(xs)
		if !near(p, c.wantP) || v != c.wantV || ok != c.wantOK {
			t.Errorf("n=%d: tail p%g = %g ok=%t, want p%g = %g ok=%t", c.n, p, v, ok, c.wantP, c.wantV, c.wantOK)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if ok && beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, minBeyond)
		}
	}
}

// TestQuartilesMatchPython checks the quartiles against Python's
// statistics.quantiles(xs, n=4), the "exclusive" method the bounds are
// judged by, including its extrapolation for very small samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{0.5, 0.25, 0.125}, [3]float64{0.125, 0.25, 0.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %g", got)
	}
	if q1, q2, q3 := quartiles([]float64{4}); q1 != 4 || q2 != 4 || q3 != 4 {
		t.Errorf("single sample quartiles = %g %g %g, want 4 4 4", q1, q2, q3)
	}
}

// TestCalmSamples pins which samples feed the medians: the undisturbed
// ones while they are at least half, else the least disturbed half.
func TestCalmSamples(t *testing.T) {
	cases := []struct {
		ss   samples
		want []float64
	}{
		{nil, nil},
		{samples{{1, 0}, {2, 0.01}, {3, stealMax}}, []float64{1, 2, 3}},
		{samples{{1, 0}, {9, 0.3}, {2, 0.02}, {8, 0.2}}, []float64{1, 2}},
		{samples{{7, 0.4}, {1, 0}, {9, 0.3}, {8, 0.2}, {6, 0.1}}, []float64{1, 6, 8}},
	}
	for _, c := range cases {
		got := c.ss.calm()
		if len(got) != len(c.want) {
			t.Errorf("calm(%v) = %v, want %v", c.ss, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("calm(%v) = %v, want %v", c.ss, got, c.want)
				break
			}
		}
	}
}

func TestInterleaved(t *testing.T) {
	var got []int
	for i := 0; i < 12; i++ {
		if interleaved(i, 2, 3) {
			got = append(got, i)
		}
	}
	if want := []int{4, 7, 10}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("traced passes %v, want %v", got, want)
	}
	for i := 0; i < 12; i++ {
		if interleaved(i, 0, 0) {
			t.Errorf("pass %d traced with every 0", i)
		}
	}
}
