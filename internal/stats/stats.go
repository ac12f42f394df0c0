// Package stats provides the small numeric helpers the experiment drivers
// share.
package stats

import "fmt"

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pct formats a ratio as a percentage.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Sci formats a large count in scientific notation.
func Sci(x float64) string { return fmt.Sprintf("%.2e", x) }

// Min and Max over a slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
