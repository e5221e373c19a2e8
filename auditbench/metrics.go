package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// latenciesMS returns the samples' latencies, sorted. A failed
// request counts as missing every limit: it sorts above all others.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		if s.ok {
			out[i] = float64(s.latency()) / 1e6
		} else {
			out[i] = math.Inf(1)
		}
	}
	sort.Float64s(out)
	return out
}

// endToEnd computes the user-visible metrics of one pass.
func endToEnd(p *pass) map[string]metric {
	w, r := latenciesMS(p.writes), latenciesMS(p.reads)
	return map[string]metric{
		"setup_s":              {median(secondsOf(p.setup)), "s"},
		"ingest_entries_per_s": {float64(p.entries) / p.ingest.Seconds(), "1/s"},
		"verdict_p50_ms":       {percentile(w, 0.50), "ms"},
		"read_p50_ms":          {percentile(r, 0.50), "ms"},
		"recovery_s":           {median(secondsOf(p.recovery)), "s"},
		"peak_rss_mb":          {p.rssMB, "MB"},
	}
}

// tail is the p99 of sorted latencies, or, below 1,000 samples, the
// highest percentile that still has tailSamples samples beyond it.
func tail(sorted []float64) float64 {
	q := 0.99
	if n := float64(len(sorted)); n*(1-q) < tailSamples {
		q = max(0.5, 1-tailSamples/n)
	}
	return percentile(sorted, q)
}
