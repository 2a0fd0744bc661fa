package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0 = refused
	}{
		{200, 0.95, 190}, // rank 190, ten samples beyond
		{199, 0.95, 0},   // rank 190, nine beyond
		{100, 0.95, 0},
		{100, 0.90, 90},
		{20, 0.5, 10},
		{19, 0.5, 0},
		{1000, 0.99, 990},
	} {
		got, err := tail(seq(tc.n), tc.q)
		if tc.want == 0 {
			if !errors.Is(err, errTooFewSamples) {
				t.Errorf("tail(%d samples, %g) = %v, %v; want errTooFewSamples", tc.n, tc.q, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("tail(%d samples, %g) = %v, %v; want %v", tc.n, tc.q, got, err, tc.want)
		}
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := geomean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean = %v", got)
	}
	if got := geomean([]float64{1, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v", got)
	}
}

// TestLoopLatencyIsPerKindAndPerSegment checks that real-loops latency
// is the median over whole segments of the geomean over kinds, so a
// segment slowed by host load does not move it and a partial segment
// is left out.
func TestLoopLatencyIsPerKindAndPerSegment(t *testing.T) {
	base := map[string]time.Duration{}
	for i, k := range opKinds {
		base[k] = time.Duration(i+1) * 10 * time.Microsecond
	}
	ls := &loopStats{}
	for seg, factor := range []time.Duration{1, 2, 10, 50} {
		rounds := segmentRounds
		if seg == 3 {
			rounds = segmentRounds - 1 // partial: ignored
		}
		for r := 0; r < rounds; r++ {
			for _, k := range opKinds {
				ls.ops = append(ls.ops, loopOp{kind: k, dur: factor * base[k], serial: base[k]})
				if k == "for-static" || k == "reduce-csr" {
					ls.ops = append(ls.ops, loopOp{kind: k, dur: factor * base[k], serial: base[k]})
				}
			}
			ls.roundEnd = append(ls.roundEnd, len(ls.ops))
			ls.rounds = append(ls.rounds, 0.001)
		}
	}
	v, err := loopValues(ls)
	if err != nil {
		t.Fatal(err)
	}
	var bases []float64
	for _, k := range opKinds {
		bases = append(bases, ms(base[k]))
	}
	want := 2 * geomean(bases) // segments at 1×, 2× and 10×: the median is 2×
	for _, name := range []string{"latency_ms", "latency_tail_ms"} {
		if math.Abs(v[name]-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
}
