package main

import (
	"math"
	"sort"
	"time"
)

// tailMargin is how many samples must lie beyond a reported percentile.
const tailMargin = 10

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of an ascending slice (0 for an
// empty one).
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// supportedQuantile lowers q until at least tailMargin samples lie beyond
// it, never below the median: a tail percentile is only reported where the
// sample supports it.
func supportedQuantile(n int, q float64) float64 {
	if n <= 0 {
		return 0.5
	}
	if limit := 1 - float64(tailMargin)/float64(n); q > limit {
		q = limit
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// tail reports the q-th percentile of xs, or the highest percentile below
// it that still has tailMargin samples beyond; used is the quantile
// actually reported.
func tail(xs []float64, q float64) (value, used float64) {
	used = supportedQuantile(len(xs), q)
	return quantile(sorted(xs), used), used
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mib = 1 << 20
