// Package stats provides the statistical primitives used across the
// reproduction: descriptive statistics, empirical CDFs and quantiles,
// Pearson and Spearman correlation (the paper's Fig. 3a metric),
// histograms, and seeded discrete samplers (Zipf and alias-method) for
// the synthetic trace generator.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sum returns the sum of xs. An empty slice sums to 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the common default).
// It returns NaN for an empty slice or q outside [0, 1]. xs is not
// modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// ECDF is an empirical cumulative distribution function over a fixed
// sample. The zero value is not usable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample. The input slice is copied.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: empty ECDF sample")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns P(X <= x), the fraction of the sample at or below x.
func (e *ECDF) At(x float64) float64 {
	// Index of the first element > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile of the sample.
func (e *ECDF) Quantile(q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	return quantileSorted(e.sorted, q)
}

// Points returns up to n (x, P(X<=x)) pairs summarising the CDF curve,
// evenly spaced over the sample's order statistics. Useful for emitting
// the paper's CDF figures as data series.
func (e *ECDF) Points(n int) []CDFPoint {
	if n <= 0 {
		return nil
	}
	if n > len(e.sorted) {
		n = len(e.sorted)
	}
	out := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(e.sorted) - 1) / max(n-1, 1)
		out = append(out, CDFPoint{
			X: e.sorted[idx],
			P: float64(idx+1) / float64(len(e.sorted)),
		})
	}
	return out
}

// CDFPoint is a single point on an empirical CDF curve.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability P(X <= x)
}

// Histogram counts values into nbins equal-width bins over [lo, hi].
// Values outside the range are clamped into the edge bins.
func Histogram(xs []float64, lo, hi float64, nbins int) ([]int, error) {
	if nbins <= 0 {
		return nil, fmt.Errorf("stats: non-positive bin count %d", nbins)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: invalid histogram range [%v, %v]", lo, hi)
	}
	counts := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
