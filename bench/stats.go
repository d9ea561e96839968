package main

import (
	"sort"
	"time"

	"socrates/internal/obs"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted xs,
// or 0 when xs is empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(q*float64(n)+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// tailCandidates are the percentiles a tail may be reported at, best
// first, in per mille (integers keep the sample arithmetic exact).
var tailCandidates = []int{999, 990, 950, 900, 750, 500}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supportedTail returns the highest candidate percentile that still has at
// least minBeyond of n samples beyond it (0.50 when none does).
func supportedTail(n int) float64 {
	for _, pm := range tailCandidates {
		if n*(1000-pm) >= minBeyond*1000 {
			return float64(pm) / 1000
		}
	}
	return 0.50
}

// latencies is a set of samples in nanoseconds.
type latencies []int64

// summary is the median and tail of a sample set, with the sample count.
// The tail is p99 whenever n supports it, else the highest percentile that
// has minBeyond samples beyond it; tailQ says which.
type summary struct {
	n         int
	p50, tail float64 // milliseconds
	tailQ     float64
}

func (l latencies) summarize() summary {
	xs := make([]float64, len(l))
	for i, ns := range l {
		xs[i] = float64(ns) / 1e6
	}
	sort.Float64s(xs)
	q := supportedTail(len(xs))
	if q > 0.99 {
		q = 0.99
	}
	return summary{n: len(xs), p50: quantile(xs, 0.50), tail: quantile(xs, q), tailQ: q}
}

// histWindow is a registry histogram's activity between two snapshots. The
// layers export power-of-two buckets, so a percentile is linearly
// interpolated inside the bucket that holds it: good to the bucket, not to
// the microsecond.
type histWindow struct {
	uppers []time.Duration
	counts []uint64 // per bucket, not cumulative
	n      uint64
}

func newHistWindow(before, after obs.HistBuckets) histWindow {
	w := histWindow{uppers: after.Uppers, counts: make([]uint64, len(after.Uppers))}
	var prevAfter, prevBefore uint64
	for i := range after.Uppers {
		var b uint64
		switch {
		case i < len(before.Cumulative):
			b = before.Cumulative[i]
		default:
			b = before.Count
		}
		w.counts[i] = (after.Cumulative[i] - prevAfter) - (b - prevBefore)
		prevAfter, prevBefore = after.Cumulative[i], b
		w.n += w.counts[i]
	}
	return w
}

// quantileUS returns the interpolated q-quantile in microseconds.
func (w histWindow) quantileUS(q float64) float64 {
	if w.n == 0 {
		return 0
	}
	target := q * float64(w.n)
	var seen float64
	for i, c := range w.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo := time.Duration(0)
			if i > 0 {
				lo = w.uppers[i-1]
			}
			frac := (target - seen) / float64(c)
			d := float64(lo) + frac*float64(w.uppers[i]-lo)
			return d / 1e3
		}
		seen += float64(c)
	}
	return float64(w.uppers[len(w.uppers)-1]) / 1e3
}

// spreadOf returns the median and the interquartile range as a share of the
// median (statistics.quantiles(values, n=4) in Python terms: the exclusive
// method), or spread 0 when fewer than two values exist.
func spreadOf(values []float64) (median, spread float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	at := func(p float64) float64 { // exclusive quantile at p in (0,1)
		h := p*float64(n+1) - 1
		if h <= 0 {
			return xs[0]
		}
		if h >= float64(n-1) {
			return xs[n-1]
		}
		i := int(h)
		return xs[i] + (h-float64(i))*(xs[i+1]-xs[i])
	}
	median = at(0.5)
	if n < 2 || median == 0 {
		return median, 0
	}
	spread = (at(0.75) - at(0.25)) / median
	if spread < 0 {
		spread = -spread
	}
	return median, spread
}
