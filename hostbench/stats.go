package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the p-th percentile (0..100) of xs by linear interpolation
// between closest ranks: position p/100·(n−1) in the sorted samples. It is
// 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile: the middle sample, or the mean of the two
// middle samples for an even count.
func median(xs []float64) float64 { return percentile(xs, 50) }

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// tail returns the highest percentile that has at least minBeyond samples
// beyond it: the (minBeyond+1)-th largest sample, which sits at
// percentile p = 100·(n−minBeyond)/n. With minBeyond or fewer samples no
// percentile qualifies; tail then returns the maximum with p = 100 and
// ok = false, and the caller reports the sample count beside it.
func tail(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 100, percentile(xs, 100), false
	}
	return 100 * float64(n-minBeyond) / float64(n), sorted(xs)[n-minBeyond-1], true
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them with its
// default "exclusive" method: the i-th cut sits at 1-based position
// i·(n+1)/4, interpolated between the two samples around it, and for
// samples too small to bracket it, extrapolated from the first or last
// two. With fewer than two samples every quartile is the sample (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run stability figure the benchmark's bounds are set against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
