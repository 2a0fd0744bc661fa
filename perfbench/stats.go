package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile for
// it to be reported: a p95 over fewer than 200 samples would rest on a
// handful of outliers and is no tail at all.
const minBeyond = 10

// errTooFewSamples is returned by tail when the sample set cannot
// support the requested percentile.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of xs (0 < q < 1), provided
// at least minBeyond samples lie strictly beyond its rank.
func tail(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w (need %d beyond rank %d)",
			q*100, n, errTooFewSamples, minBeyond, rank)
	}
	return sorted(xs)[rank-1], nil
}

// geomean returns the geometric mean of positive values (0 if any
// value is not positive or the set is empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns num/den, or 0 when den is 0 (a share with an empty
// base is reported as 0 next to its base).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
