package main

import (
	"cmp"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples,
// lowered as far as needed to keep at least minBeyond samples above it
// but never below the median. With fewer than 2·minBeyond+1 samples a
// tail percentile therefore reads as the median.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = min(i, n-1-minBeyond)
	i = max(i, (n-1)/2, 0)
	return sorted[i]
}

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func medianFloat(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time span [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime returns the part of parent that none of children covers.
// Children may overlap each other and stick out of the parent; only
// their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.lo, c.hi = max(c.lo, parent.lo), min(c.hi, parent.hi)
		if c.hi > c.lo {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	covered, end := int64(0), parent.lo
	for _, c := range cs {
		if c.lo > end {
			end = c.lo
		}
		if c.hi > end {
			covered += c.hi - end
			end = c.hi
		}
	}
	return parent.hi - parent.lo - covered
}
