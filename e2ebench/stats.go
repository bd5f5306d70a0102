package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of observations of one quantity (latencies in ms,
// rates, per-round wall times). Percentiles interpolate linearly between
// the two nearest ranks, the method Python's statistics.quantiles
// calls "inclusive"; an empty set reports NaN so a missing measurement
// cannot pass for a zero.
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100).
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	pos := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(c) {
		return c[lo]
	}
	return c[lo] + frac*(c[lo+1]-c[lo])
}

func (s samples) median() float64 { return s.percentile(50) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

// beyond counts the samples strictly above the p-th percentile: a
// percentile is only worth reporting when at least ten samples lie
// beyond it.
func (s samples) beyond(p float64) int {
	cut := s.percentile(p)
	n := 0
	for _, v := range s {
		if v > cut {
			n++
		}
	}
	return n
}

// describe renders the set for the human-readable report: median,
// p99 with the number of samples beyond it, and the count.
func (s samples) describe(unit string) string {
	if len(s) == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50 %.4g %s, p99 %.4g %s (%d beyond), n=%d",
		s.median(), unit, s.percentile(99), unit, s.beyond(99), len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0: the per-layer figures of a
// layer that did no work in a workload read 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
