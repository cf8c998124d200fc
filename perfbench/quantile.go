package main

import (
	"math"
	"slices"
	"sort"

	"omxsim/internal/report"
)

// latencyUS is the q-quantile of a round's operation latencies in µs:
// the exact order statistic where the benchmark saw every sample.
// kv-fleet's samples exist only in kv's histograms, whose quantiles are
// bucket bounds; there the quantile is interpolated within its bucket.
func (o *outcome) latencyUS(q float64) float64 {
	if len(o.raw) == 0 {
		return histQuantileUS(&o.lat, q)
	}
	s := slices.Clone(o.raw)
	slices.Sort(s)
	return float64(s[nearestRank(q, uint64(len(s)))-1]) / 1000
}

// nearestRank is the 1-based rank of the q-quantile of n samples, as
// report.Hist ranks them.
func nearestRank(q float64, n uint64) uint64 {
	r := uint64(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// histQuantileUS is the q-quantile of h in µs, interpolated linearly
// within the bucket that holds it, as Prometheus' histogram_quantile
// does. report.Hist answers with the bucket's upper bound, and on
// kv-fleet that bound is the same for nearly every seed (p50 94.207 µs
// on 18 of 20 seeds), so a metric read that way would neither move with
// the inputs nor show a change smaller than a bucket. The bucket's
// samples are taken as spread evenly between the bound of the next lower
// populated bucket (or the exact minimum) and the bucket's own bound (or
// the exact maximum).
func histQuantileUS(h *report.Hist, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	// at(r) is the upper bound of the bucket holding the r'th sample; it
	// does not decrease with r, so the ranks sharing a bucket are found
	// by bisection.
	at := func(r uint64) int64 { return h.Quantile((float64(r) - 0.5) / float64(n)) }
	rank := nearestRank(q, n)
	upper := at(rank)
	first := 1 + uint64(sort.Search(int(rank), func(i int) bool { return at(uint64(i)+1) >= upper }))
	last := rank + uint64(sort.Search(int(n-rank), func(i int) bool { return at(rank+uint64(i)+1) > upper }))
	lo := h.Min()
	if first > 1 {
		lo = at(first-1) + 1
	}
	hi := min(upper, h.Max())
	frac := (float64(rank-first) + 0.5) / float64(last-first+1)
	return (float64(lo) + frac*float64(hi-lo)) / 1000
}

// checkHist holds a latency histogram's reported quantiles to its exact
// maximum, allowing the documented round-up to the bucket bound of at
// most 1/32.
func checkHist(name string, h *report.Hist, out *outcome) {
	limit := h.Max() + h.Max()/32 + 1
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if v := h.Quantile(q); v > limit {
			out.errorf("%s: p%g = %d ns exceeds max %d ns by more than 1/32", name, q*100, v, h.Max())
		}
	}
}
