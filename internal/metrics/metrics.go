// Package metrics provides the lightweight instrumentation the experiments
// use: latency histograms and CDFs (Fig. 7), and simple counters. The paper
// stresses "effortless instrumentation" (§VII); these helpers are
// allocation-light and safe for concurrent use.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Histogram collects latency samples and reports quantiles and CDFs.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Record adds one latency sample.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, d)
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Quantile returns the q-quantile (0..1) of recorded samples using the
// nearest-rank method: the smallest sample such that at least q·n samples
// are ≤ it. Truncating the index (the previous behaviour) biases tail
// quantiles low — p99 of 10 samples must be the maximum, not the 9th value.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration{}, h.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[nearestRankIndex(q, len(sorted))]
}

// nearestRankIndex maps quantile q over n sorted samples to the
// nearest-rank index ceil(q·n)-1, clamped to [0, n-1].
func nearestRankIndex(q float64, n int) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		return 0
	}
	if idx >= n {
		return n - 1
	}
	return idx
}

// CDF returns (latency, cumulative fraction) points at the given percentile
// grid, suitable for plotting Fig. 7-style curves.
func (h *Histogram) CDF(points []float64) []CDFPoint {
	out := make([]CDFPoint, len(points))
	for i, q := range points {
		out[i] = CDFPoint{Fraction: q, Latency: h.Quantile(q)}
	}
	return out
}

// CDFPoint is one point of a latency CDF.
type CDFPoint struct {
	Fraction float64
	Latency  time.Duration
}

// CDFRow renders a CDF as a fixed-grid table row set.
func CDFTable(name string, h *Histogram) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s", name)
	for _, p := range h.CDF([]float64{0.25, 0.50, 0.75, 0.90, 0.99}) {
		fmt.Fprintf(&sb, " p%02.0f=%-10s", p.Fraction*100, p.Latency.Round(time.Millisecond))
	}
	return sb.String()
}

// LogScaleBuckets returns log-spaced latency buckets between lo and hi, used
// for the log-scale x axis of Fig. 7.
func LogScaleBuckets(lo, hi time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	llo, lhi := math.Log(float64(lo)), math.Log(float64(hi))
	for i := 0; i < n; i++ {
		out[i] = time.Duration(math.Exp(llo + (lhi-llo)*float64(i)/float64(n-1)))
	}
	return out
}

// FractionBelow reports the fraction of samples at or below d.
func (h *Histogram) FractionBelow(d time.Duration) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range h.samples {
		if s <= d {
			n++
		}
	}
	return float64(n) / float64(len(h.samples))
}

// PromGauge writes one gauge sample in the Prometheus text exposition
// format: `name{k1="v1",k2="v2"} value`. Label keys are emitted in sorted
// order so output is deterministic. Used by the /v1/metrics endpoint.
func PromGauge(w io.Writer, name string, labels map[string]string, value float64) {
	fmt.Fprint(w, name)
	if len(labels) > 0 {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(w, "{")
		for i, k := range keys {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "%s=%q", k, labels[k])
		}
		fmt.Fprint(w, "}")
	}
	fmt.Fprintf(w, " %g\n", value)
}

// BucketHistogram counts observations into fixed cumulative buckets: the
// constant-memory shape of a Prometheus histogram, for a ratio or a size
// where RingHistogram's durations do not fit.
type BucketHistogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implied
	mu     sync.Mutex
	counts []int64 // observations ≤ bounds[i]; the last entry is +Inf
	sum    float64
}

// NewBucketHistogram creates a histogram over the given ascending upper
// bounds.
func NewBucketHistogram(bounds ...float64) *BucketHistogram {
	return &BucketHistogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value.
func (h *BucketHistogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
		}
	}
	h.counts[len(h.bounds)]++
}

// WriteProm writes the histogram in the Prometheus text exposition format:
// name_bucket{le="..."} per bound and +Inf, then name_sum and name_count.
func (h *BucketHistogram) WriteProm(w io.Writer, name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, b := range h.bounds {
		PromGauge(w, name+"_bucket", map[string]string{"le": fmt.Sprintf("%g", b)}, float64(h.counts[i]))
	}
	n := h.counts[len(h.bounds)]
	PromGauge(w, name+"_bucket", map[string]string{"le": "+Inf"}, float64(n))
	PromGauge(w, name+"_sum", nil, h.sum)
	PromGauge(w, name+"_count", nil, float64(n))
}

// RingHistogram is a bounded latency histogram for production metrics: it
// keeps the most recent n samples (overwriting the oldest) plus a lifetime
// count, so a long-lived serving endpoint reports current tail latency in
// constant memory — unlike Histogram, which retains every sample for the
// experiments' offline CDFs.
type RingHistogram struct {
	mu    sync.Mutex
	buf   []time.Duration
	next  int
	count int // live samples (≤ len(buf))
	total int64
}

// NewRingHistogram creates a histogram over the last n samples (n ≤ 0
// selects 4096).
func NewRingHistogram(n int) *RingHistogram {
	if n <= 0 {
		n = 4096
	}
	return &RingHistogram{buf: make([]time.Duration, n)}
}

// Record adds one sample, displacing the oldest when the window is full.
func (h *RingHistogram) Record(d time.Duration) {
	h.mu.Lock()
	h.buf[h.next] = d
	h.next = (h.next + 1) % len(h.buf)
	if h.count < len(h.buf) {
		h.count++
	}
	h.total++
	h.mu.Unlock()
}

// Total reports lifetime samples recorded (including displaced ones).
func (h *RingHistogram) Total() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Count reports samples currently in the window.
func (h *RingHistogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile returns the q-quantile over the window (nearest-rank, like
// Histogram.Quantile); zero when empty.
func (h *RingHistogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	sorted := make([]time.Duration, h.count)
	if h.count < len(h.buf) {
		copy(sorted, h.buf[:h.count])
	} else {
		copy(sorted, h.buf)
	}
	h.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[nearestRankIndex(q, len(sorted))]
}
