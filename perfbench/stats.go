package main

import (
	"slices"
	"time"
)

// p99Samples is the sample count from which the tail is the 99th
// percentile: with fewer, p99 would have under ten samples above it.
const p99Samples = 1000

// tailPercentile returns the percentile reported as tail_ms for a run of
// n samples: 99 from p99Samples up, below that the highest whole
// percentile that leaves at least ten samples above it, and 0 when even
// the minimum has fewer than ten above it.
func tailPercentile(n int) int {
	if n >= p99Samples {
		return 99
	}
	if n <= 10 {
		return 0
	}
	return 100 * (n - 10) / n
}

// windows cuts n ops into consecutive [lo, hi) windows of size ops; a
// last window shorter than size joins the one before it. Taking the
// median of the windows' tails keeps a host stall of a few seconds from
// setting a run's tail.
func windows(n, size int) [][2]int {
	var out [][2]int
	for lo := 0; lo+size <= n; lo += size {
		out = append(out, [2]int{lo, lo + size})
	}
	if len(out) == 0 {
		return [][2]int{{0, n}}
	}
	out[len(out)-1][1] = n
	return out
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p, n int) int {
	r := (p*n + 99) / 100
	return max(r, 1)
}

// above is how many of n samples lie above the nearest-rank p-th
// percentile.
func above(p, n int) int { return n - rank(p, n) }

// percentile returns the nearest-rank p-th percentile of ds.
func percentile(ds []time.Duration, p int) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[rank(p, len(s))-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
