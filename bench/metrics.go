package main

import (
	"errors"
	"math"
	"slices"
)

// stat is one metric's value with the distribution of the samples behind
// it: their median and quartiles and, with at least 20 samples, the highest
// percentile that has 10 samples beyond it.
type stat struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n"`
	Min     float64 `json:"min"`
	Q1      float64 `json:"q1"`
	Median  float64 `json:"median"`
	Q3      float64 `json:"q3"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// endToEndNames lists the end-to-end metrics in report order.
var endToEndNames = []string{"wall_s", "cpu_s", "setup_s", "allocs_per_run", "alloc_mb_per_run", "peak_rss_mb"}

// median summarizes xs with their median as the value.
func median(xs []float64, unit string) stat {
	s := slices.Sorted(slices.Values(xs))
	m := stat{Unit: unit, N: len(s), Min: s[0], Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
	if len(s) >= 20 {
		p := 1 - 10/float64(len(s))
		m.TailPct, m.Tail = 100*p, quantile(s, p)
	}
	m.Value = m.Median
	return m
}

// fastest summarizes run times with the fastest as the value. Every run
// does the same deterministic work, and a shared host only ever adds time
// to a run, so the fastest is the steadiest estimate of the program's cost.
func fastest(xs []float64, unit string) stat {
	m := median(xs, unit)
	m.Value = m.Min
	return m
}

// quantile interpolates linearly between order statistics at rank (n+1)p,
// the method of Python's statistics.quantiles, clamped to the sample range.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := p*float64(n+1) - 1
	if r <= 0 {
		return sorted[0]
	}
	if r >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(r)
	return sorted[i] + (r-float64(i))*(sorted[i+1]-sorted[i])
}

// endToEnd computes the end-to-end metrics from the timed sessions.
func (rs *runSet) endToEnd() (map[string]stat, error) {
	var wall, cpu, setup, allocs, mb, rss []float64
	for _, s := range rs.timed {
		n := float64(len(s.WallS))
		wall = append(wall, s.WallS...)
		cpu = append(cpu, s.CPUS...)
		setup = append(setup, s.SetupS)
		allocs = append(allocs, float64(s.Mallocs)/n)
		mb = append(mb, float64(s.AllocBytes)/1e6/n)
		rss = append(rss, float64(s.MaxRSSKB)*1024/1e6)
	}
	if len(wall) == 0 {
		return nil, errors.New("no timed session finished")
	}
	return map[string]stat{
		"wall_s":           fastest(wall, "s"),
		"cpu_s":            fastest(cpu, "s"),
		"setup_s":          median(setup, "s"),
		"allocs_per_run":   median(allocs, "count"),
		"alloc_mb_per_run": median(mb, "MB"),
		"peak_rss_mb":      median(rss, "MB"),
	}, nil
}

// perLayer computes the per-layer metrics of the profiled session, per warm
// run, and trace.overhead: its fastest run against wallS, the untraced one.
func (rs *runSet) perLayer(wallS float64) (map[string]stat, error) {
	t := rs.traced
	if t == nil {
		return nil, errors.New("the profiled session did not finish")
	}
	n := float64(len(t.WallS))
	m := map[string]stat{
		"trace.overhead": {Value: slices.Min(t.WallS)/wallS - 1, Unit: "ratio", N: len(t.WallS)},
	}
	for _, l := range layers {
		m["layer."+l+".cpu_ms"] = stat{Value: float64(t.Layers.CPUNs[l]) / 1e6 / n, Unit: "ms", N: int(t.Layers.Samples[l])}
		m["layer."+l+".alloc_mb"] = stat{Value: t.Layers.AllocBytes[l] / 1e6 / n, Unit: "MB", N: len(t.WallS)}
	}
	return m, nil
}
