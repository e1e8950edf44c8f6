package main

import (
	"testing"
)

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 50}, // ceil(5.0) = rank 5
		{0.51, 60}, // ceil(5.1) = rank 6
		{0.25, 30}, // ceil(2.5) = rank 3
		{0.95, 100},
		{0.10, 10},
		{1.00, 100},
		{0.001, 10},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestHighestSupportedNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		limit float64
		want  float64
	}{
		{9, 1, 0.50},    // nothing has ten beyond; the median is all there is
		{19, 1, 0.50},   // p50 of 19 has 9 beyond: still only the median
		{20, 1, 0.50},   // exactly ten beyond the median
		{39, 1, 0.50},   // p75 of 39 is rank 30: 9 beyond
		{40, 1, 0.75},   // rank 30 of 40: ten beyond
		{73, 1, 0.75},   // collect_mem's count: p90 would have 7 beyond
		{100, 1, 0.90},  // rank 90 of 100
		{199, 1, 0.90},  // p95 of 199 is rank 190: 9 beyond
		{200, 1, 0.95},  // rank 190 of 200
		{1000, 1, 0.99}, // rank 990 of 1000
		{9999, 1, 0.99},
		{10000, 1, 0.999},
		{10000, tailLimit, 0.95}, // the gated tail never goes above p95
	}
	for _, c := range cases {
		if got := highestSupported(c.n, c.limit); got != c.want {
			t.Errorf("highestSupported(n=%d, limit=%v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

func TestDescribeStreamReportsTheBestSlice(t *testing.T) {
	// Ten one-second slices of 400 requests. Slice 7 is the quiet one:
	// latencies 1.000..1.399 ms, every answer good. Slice 4 is empty (the
	// whole machine stalled). The other eight are disturbed by differing
	// amounts: latencies 2x..9x and some answers late.
	var samples []timed
	for slice := 0; slice < 10; slice++ {
		if slice == 4 {
			continue
		}
		for k := 0; k < 400; k++ {
			s := timed{at: float64(slice) + float64(k)/400, val: 1 + float64(k)/1000, good: true}
			if slice != 7 {
				s.val *= float64(2 + slice%8)
				s.good = k%(2+slice) != 0
			}
			samples = append(samples, s)
		}
	}
	d := describeStream(samples, 10)
	if d.N != 3600 || len(d.Slices) != 10 {
		t.Fatalf("n %d, %d slices", d.N, len(d.Slices))
	}
	// A typical slice has 400 samples, which supports p95 (rank 380, 20
	// beyond); the empty slice does not change that.
	if d.TailPct != 0.95 {
		t.Fatalf("tail percentile %v, want 0.95", d.TailPct)
	}
	quiet := d.Slices[7]
	if quiet.N != 400 || quiet.GoodPerS != 400 || quiet.P50 != 1.199 || quiet.Tail != 1.379 {
		t.Fatalf("quiet slice = %+v", quiet)
	}
	if empty := d.Slices[4]; empty.N != 0 || empty.GoodPerS != 0 {
		t.Fatalf("empty slice = %+v", empty)
	}
	// The gated values are the quiet slice's; the empty slice's zero
	// latency must not win.
	if d.Rate != 400 || d.Op != 1.199 || d.Tail != 1.379 {
		t.Errorf("gated rate %v op %v tail %v; want the quiet slice's 400, 1.199, 1.379", d.Rate, d.Op, d.Tail)
	}
	// The whole-interval numbers carry the disturbance, and p99 is
	// reported there (3600 samples: 36 beyond) but p999 is not (3 beyond).
	if d.Whole["p50"] <= 2*d.Op || d.Whole["p99"] < 10 {
		t.Errorf("whole interval = %v", d.Whole)
	}
	if _, ok := d.Whole["p999"]; ok {
		t.Errorf("p999 reported from 3600 samples: fewer than ten lie beyond it")
	}
}

func TestDescribeStreamPicksTheTailPercentileATypicalSliceSupports(t *testing.T) {
	stream := func(perSlice int) []timed {
		var samples []timed
		for i := 0; i < 10*perSlice; i++ {
			samples = append(samples, timed{at: float64(i) / float64(perSlice), val: float64(i%perSlice + 1), good: true})
		}
		return samples
	}
	// 400 a slice: p95 is rank 380, 20 beyond.
	if d := describeStream(stream(400), 10); d.TailPct != 0.95 || d.Tail != 380 {
		t.Errorf("400 a slice: tail %v at %v, want 380 at 0.95", d.Tail, d.TailPct)
	}
	// 50 a slice: p95 would have 2 beyond, p90 5, p75 12.
	if d := describeStream(stream(50), 10); d.TailPct != 0.75 || d.Tail != 38 {
		t.Errorf("50 a slice: tail %v at %v, want 38 at 0.75", d.Tail, d.TailPct)
	}
}

func TestDescribeOpsUsesTheBestAndTheFirstQuartile(t *testing.T) {
	// Eight passes; two were disturbed.
	d := describeOps([]float64{165, 300, 162, 161, 160, 163, 280, 164})
	// Sorted: 160 161 162 163 164 165 280 300. The first quartile is rank 2.
	if d.N != 8 || d.Op != 160 || d.Tail != 161 || d.TailPct != 0.25 {
		t.Errorf("describeOps = %+v", d)
	}
	// Four cycles: the first quartile is the best.
	if four := describeOps([]float64{2.9, 2.7, 3.4, 2.8}); four.Op != 2.7 || four.Tail != 2.7 {
		t.Errorf("four operations: %+v", four)
	}
	if d.Whole["p50"] != 163 || len(d.Whole) != 1 {
		t.Errorf("whole interval = %v; eight samples support the median only", d.Whole)
	}
	if d.Ops[0] != 165 {
		t.Errorf("describeOps reordered its input: %v", d.Ops)
	}
}
