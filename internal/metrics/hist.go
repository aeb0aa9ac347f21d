package metrics

import (
	"math"
	"math/bits"
)

// Histogram bucket layout: fixed log-spaced buckets over virtual-time
// nanoseconds. Values below histSub land in exact unit buckets; above
// that, every power-of-two octave splits into histSub log-spaced
// sub-buckets (the two bits after the leading one select the sub-bucket),
// so quantile estimates carry at most one sub-bucket of relative error
// (~19%) at any magnitude. The layout is fixed at compile time: recording
// is a shift, a mask, and an array increment — no allocation, no locks,
// and (like every metric in this package) no virtual time.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits

	// HistBuckets covers every non-negative int64 nanosecond value.
	HistBuckets = (64-histSubBits)*histSub + histSub
)

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	b := bits.Len64(v)
	sub := (v >> uint(b-1-histSubBits)) & (histSub - 1)
	return (b-histSubBits)*histSub + int(sub)
}

// histBounds returns the half-open value range [lo, hi) of bucket idx.
func histBounds(idx int) (lo, hi float64) {
	if idx < histSub {
		return float64(idx), float64(idx + 1)
	}
	o := idx >> histSubBits
	sub := idx & (histSub - 1)
	b := o + histSubBits
	l := (uint64(1) << uint(b-1)) | (uint64(sub) << uint(b-1-histSubBits))
	w := uint64(1) << uint(b-1-histSubBits)
	return float64(l), float64(l) + float64(w)
}

// Hist is a fixed-bucket log-spaced histogram of virtual-time
// nanoseconds. The zero value is ready to use. Like Registry, a Hist is
// single-writer: one simulation records into it; cross-worker aggregation
// merges snapshots through Collector.
type Hist struct {
	counts [HistBuckets]uint64
	count  uint64
	sum    float64
	max    float64
}

// Observe records one value. Negative and NaN observations clamp to zero
// (durations cannot be negative; the clamp keeps a bad input from
// poisoning the whole distribution).
func (h *Hist) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[histBucket(uint64(v))]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Max reports the largest observation (exact, not bucketed).
func (h *Hist) Max() float64 { return h.max }

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the covering bucket, clamped to the exact maximum.
//
// NaN policy: a histogram never reports NaN. An empty histogram reports 0
// for every quantile (and Max and the exposition sum are 0), a single-sample histogram
// reports that sample's bucket clamped to the exact max for every
// quantile, and NaN observations were already clamped to 0 by Observe —
// so flattened summary keys (Snapshot.Map) and rendered tables stay
// finite and diffable.
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := q * float64(h.count)
	if target < 1 {
		target = 1
	}
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum >= target {
			lo, hi := histBounds(i)
			frac := (target - (cum - float64(c))) / float64(c)
			v := lo + (hi-lo)*frac
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Clone returns an independent copy.
func (h *Hist) Clone() *Hist {
	c := *h
	return &c
}

// MergeFrom folds o's observations into h (bucket-wise sums; the max is
// the max of the two). This is the across-workers combination Collector
// applies.
func (h *Hist) MergeFrom(o *Hist) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}
