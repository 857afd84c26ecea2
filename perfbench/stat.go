package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "R-7" rule). xs need not be
// sorted; it is not modified. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantiles are the tail percentiles a timing may report, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// tailQuantile returns the highest of tailQuantiles that leaves at
// least ten samples beyond it in a sample of n, or 0.5 when even p90
// does not: a tail percentile resting on fewer samples is noise.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// metric is one reported value with its unit and the number of
// samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// histQuantile estimates the q-quantile of a bucketed histogram by
// linear interpolation inside the bucket that holds it. bounds[i] is
// bucket i's inclusive upper edge; counts has one more entry, the
// overflow bucket, which reports its lower edge.
func histQuantile(bounds []int64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	for i, c := range counts {
		if c == 0 || float64(seen+c) < rank {
			seen += c
			continue
		}
		if i >= len(bounds) {
			return float64(bounds[len(bounds)-1])
		}
		lo := 0.0
		if i > 0 {
			lo = float64(bounds[i-1])
		}
		return lo + (rank-float64(seen))/float64(c)*(float64(bounds[i])-lo)
	}
	return float64(bounds[len(bounds)-1])
}
