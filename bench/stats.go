package main

import (
	"slices"
)

// metric is one reported number. Spread is (max−min)/median over the slices
// (or repetitions) the value is the median of; 0 when there was only one.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile reads the p-quantile (0..1) of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(p*float64(len(sorted))), len(sorted)-1)]
}

// ofMedian summarises repeated measurements of one quantity.
func ofMedian(unit string, xs []float64, samples int) metric {
	m := metric{Value: median(xs), Unit: unit, Samples: samples}
	if len(xs) > 1 && m.Value != 0 {
		m.Spread = (slices.Max(xs) - slices.Min(xs)) / m.Value
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
