package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("count: %d", h.Count())
	}
	if q := h.Quantile(0.5); q < 49*time.Millisecond || q > 52*time.Millisecond {
		t.Errorf("median: %s", q)
	}
	if q := h.Quantile(0); q != time.Millisecond {
		t.Errorf("min: %s", q)
	}
	if q := h.Quantile(1); q != 100*time.Millisecond {
		t.Errorf("max: %s", q)
	}
}

// Regression test for the truncation bias: nearest-rank quantiles. With 10
// samples, p99 must be the maximum — int(0.99·10) = 9 used to select the
// 9th-smallest sample and under-report tail latency.
func TestQuantileNearestRank(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 10; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{0.05, 1 * time.Millisecond},
		{0.10, 1 * time.Millisecond},
		{0.25, 3 * time.Millisecond},
		{0.50, 5 * time.Millisecond},
		{0.90, 9 * time.Millisecond},
		{0.95, 10 * time.Millisecond},
		{0.99, 10 * time.Millisecond}, // truncation gave 9ms here
		{1, 10 * time.Millisecond},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}

	single := &Histogram{}
	single.Record(7 * time.Millisecond)
	if got := single.Quantile(0.5); got != 7*time.Millisecond {
		t.Errorf("single-sample median = %v", got)
	}
}

func TestPromGauge(t *testing.T) {
	var sb strings.Builder
	PromGauge(&sb, "up", nil, 1)
	PromGauge(&sb, "mem_bytes", map[string]string{"worker": "3", "kind": "general"}, 2048)
	got := sb.String()
	want := "up 1\nmem_bytes{kind=\"general\",worker=\"3\"} 2048\n"
	if got != want {
		t.Errorf("prom output:\n%q\nwant:\n%q", got, want)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.FractionBelow(time.Second) != 0 {
		t.Error("empty histogram should be zero-valued")
	}
}

func TestFractionBelow(t *testing.T) {
	h := &Histogram{}
	h.Record(time.Millisecond)
	h.Record(10 * time.Millisecond)
	h.Record(100 * time.Millisecond)
	if f := h.FractionBelow(10 * time.Millisecond); f < 0.66 || f > 0.67 {
		t.Errorf("fraction: %f", f)
	}
}

func TestCDF(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 10; i++ {
		h.Record(time.Duration(i) * time.Second)
	}
	pts := h.CDF([]float64{0.1, 0.9})
	if len(pts) != 2 || pts[0].Latency >= pts[1].Latency {
		t.Errorf("cdf: %+v", pts)
	}
}

func TestLogScaleBuckets(t *testing.T) {
	b := LogScaleBuckets(time.Millisecond, time.Second, 4)
	if len(b) != 4 {
		t.Fatalf("buckets: %v", b)
	}
	if d := b[0] - time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("first bucket ≈ 1ms, got %v", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Error("buckets must increase")
		}
	}
}

func TestBucketHistogram(t *testing.T) {
	h := NewBucketHistogram(1.15, 2)
	for _, v := range []float64{1, 1.15, 1.5, 3} {
		h.Observe(v)
	}
	var sb strings.Builder
	h.WriteProm(&sb, "skew")
	want := `skew_bucket{le="1.15"} 2
skew_bucket{le="2"} 3
skew_bucket{le="+Inf"} 4
skew_sum 6.65
skew_count 4
`
	if sb.String() != want {
		t.Errorf("exposition:\n%swant:\n%s", sb.String(), want)
	}
}
