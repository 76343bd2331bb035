package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: a percentile resting on fewer is one or two outliers.
const minTail = 10

// tailPercentile returns the highest percentile, capped at want, that
// has at least minTail of n samples beyond it. Below 2*minTail samples
// no tail is supported and the median is returned.
func tailPercentile(n int, want float64) float64 {
	if n < 2*minTail {
		return 50
	}
	p := 100 * (1 - float64(minTail)/float64(n))
	p = math.Floor(p*10) / 10
	return math.Min(p, want)
}

// percentileOf is the nearest-rank percentile of sorted: the smallest
// sample with at least p% of samples at or below it.
func percentileOf(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps float error in p/100*n from rounding an exact
	// rank up to the next sample.
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencies collects per-operation durations for one latency metric.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }

// summary is a latency distribution reduced to the numbers a report
// prints: the median and the supported tail, with its sample count.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
	Mean    float64 `json:"mean_ms"`
}

// summarize reports the median and the highest percentile up to p99
// that the sample supports (see tailPercentile).
func (l *latencies) summarize() summary {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	out.Mean = sum / float64(len(s))
	out.P50 = percentileOf(s, 50)
	out.TailPct = tailPercentile(len(s), 99)
	out.Tail = percentileOf(s, out.TailPct)
	return out
}

// median of xs (the mean of the middle pair for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
