// Package stats provides the statistical helpers the paper's
// evaluation uses: margins of error for sampled proportions (§5.4,
// §6.2) and the mean.
package stats

import "math"

// z95 is the normal quantile for a 95% confidence level.
const z95 = 1.959963984540054

// MarginOfError95 returns the 95%-confidence margin of error for an
// observed proportion p estimated from n samples, under the paper's
// normal-approximation assumption (§5.4).
func MarginOfError95(p float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return z95 * math.Sqrt(p*(1-p)/float64(n))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
