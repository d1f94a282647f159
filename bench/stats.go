package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the middle of vals (mean of the two middle values for an
// even count), or 0 for an empty sample. It does not modify vals.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of vals.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), so the A/A
// mode computes the same spread the acceptance driver does.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mb = 1 << 20

// heapSampler tracks the largest in-use heap seen at 10 ms intervals. It
// reads runtime/metrics, which unlike runtime.ReadMemStats does not stop the
// world, so sampling does not perturb the latencies being measured.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64 // the sampler's alone until Stop has waited for it
}

func heapInUse(samples []metrics.Sample) uint64 {
	metrics.Read(samples)
	return samples[0].Value.Uint64() + samples[1].Value.Uint64()
}

func heapSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.peak = heapInUse(heapSamples())
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		samples := heapSamples()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if v := heapInUse(samples); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit and returns the peak in
// bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	if now := heapInUse(heapSamples()); now > h.peak {
		h.peak = now
	}
	return h.peak
}

// memDelta is what the Go runtime did between two points of a run.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
	}
}
