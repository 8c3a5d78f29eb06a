package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// how many samples lie strictly beyond that rank. A failed operation is
// carried as +Inf, so it sorts last and misses every latency limit.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

// samplesFor returns the smallest sample count whose nearest-rank
// q-quantile has at least beyond samples past it.
func samplesFor(q float64, beyond int) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= beyond {
			return n
		}
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// recordsPerN is coding overhead as records received over the records a
// perfect code needs: n per segment per completed fetch.
func recordsPerN(records int64, n, segments, fetches int) float64 {
	return ratio(float64(records), float64(n*segments*fetches))
}

// overshoot counts the records of one completed fetch that arrived for a
// segment already at full rank. Every valid record is either absorbed
// (innovative or dependent) or overshoot, and a completed fetch absorbed
// exactly n innovative records per segment.
func overshoot(records, dependent, n, segments int) int {
	return records - n*segments - dependent
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
