package main

import (
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {100, 90}, {400, 97.5}, {999, 98.9}, {1000, 99}, {5000, 99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, 99); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 2 * minTail; n <= 3000; n++ {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		v := percentileOf(sorted, tailPercentile(n, 99))
		if beyond := n - 1 - int(v); beyond < minTail {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", n, tailPercentile(n, 99), beyond)
		}
	}
}

func TestSummarizeCountsSamples(t *testing.T) {
	var l latencies
	for i := 1; i <= 1000; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	s := l.summarize()
	if s.N != 1000 || s.P50 != 500 || s.TailPct != 99 || s.Tail != 990 {
		t.Fatalf("summary = %+v, want n=1000 p50=500 p99=990", s)
	}
	if s := (&latencies{}).summarize(); s.N != 0 || s.Tail != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestIntervalMedianSkipsUndefined(t *testing.T) {
	t0 := time.Unix(0, 0)
	ps := []progress{
		{t: t0, updates: 0},
		{t: t0.Add(time.Second), updates: 10},
		{t: t0.Add(2 * time.Second), updates: 10}, // no progress: undefined per-update cost
		{t: t0.Add(3 * time.Second), updates: 40},
	}
	rate := intervalMedian(ps, func(a, b progress) (float64, bool) {
		return float64(b.updates-a.updates) / b.t.Sub(a.t).Seconds(), true
	})
	if rate != 10 {
		t.Fatalf("median rate = %v, want 10", rate)
	}
	perUpdate := intervalMedian(ps, func(a, b progress) (float64, bool) {
		n := b.updates - a.updates
		return 1 / float64(n), n > 0
	})
	if want := (1.0/10 + 1.0/30) / 2; perUpdate != want {
		t.Fatalf("median per-update = %v, want %v", perUpdate, want)
	}
}
