package main

import (
	"math/rand"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// latencyBlock is how many consecutive latency samples one percentile is
// taken over; the reported percentile is the median over blocks, so one
// host stall moves one block, not the figure. serve's frames take about a
// millisecond each, so its blocks are shorter (serveLatencyBlock): a block
// of 1000 frames spans about a second and held a stall more often than
// not.
const latencyBlock = 1000

// hostMetrics reports the host-time end-to-end metrics: throughput as the
// median over rounds, latency percentiles as medians over blocks of block
// samples.
func hostMetrics(m metrics, rates, lat []float64, block int) {
	m.set("ops_per_s", "ops/s", quantile(rates, 0.5))
	m.set("latency_p50_us", "us", blockQuantile(lat, 0.5, block))
	m.set("latency_p99_us", "us", blockQuantile(lat, 0.99, block))
}

func blockQuantile(xs []float64, q float64, block int) float64 {
	if len(xs) < 2*block {
		return quantile(append([]float64(nil), xs...), q)
	}
	var per []float64
	for i := 0; i+block <= len(xs); i += block {
		per = append(per, quantile(append([]float64(nil), xs[i:i+block]...), q))
	}
	return quantile(per, 0.5)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// samplePages picks n distinct pages of [0, pages) from the seed.
func samplePages(seed int64, pages, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	if n > pages {
		n = pages
	}
	perm := rng.Perm(pages)[:n]
	out := make([]uint64, n)
	for i, p := range perm {
		out[i] = uint64(p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
