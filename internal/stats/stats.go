// Package stats provides the small statistical toolkit the analysis layer
// needs: empirical CDFs (Figure 2), percentiles, Pearson correlation and
// rank agreement (the Figure 9 co-location fingerprint), and simple
// histograms.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// ErrLengthMismatch is returned when paired samples differ in length.
var ErrLengthMismatch = errors.New("stats: sample length mismatch")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs))), nil
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// CDF is an empirical cumulative distribution function: for each distinct
// sample value X, the fraction of samples <= X.
type CDF struct {
	xs []float64 // sorted distinct values
	ps []float64 // cumulative probabilities, same length
	n  int
}

// NewCDF builds the empirical CDF of xs.
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	c := &CDF{n: len(sorted)}
	for i, x := range sorted {
		if len(c.xs) > 0 && c.xs[len(c.xs)-1] == x {
			c.ps[len(c.ps)-1] = float64(i+1) / float64(len(sorted))
			continue
		}
		c.xs = append(c.xs, x)
		c.ps = append(c.ps, float64(i+1)/float64(len(sorted)))
	}
	return c, nil
}

// N returns the number of samples underlying the CDF.
func (c *CDF) N() int { return c.n }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	// Index of first value > x.
	i := sort.SearchFloat64s(c.xs, x)
	if i < len(c.xs) && c.xs[i] == x {
		return c.ps[i]
	}
	if i == 0 {
		return 0
	}
	return c.ps[i-1]
}

// Quantile returns the smallest x with P(X <= x) >= q, q in (0, 1].
func (c *CDF) Quantile(q float64) float64 {
	i := sort.SearchFloat64s(c.ps, q)
	if i >= len(c.xs) {
		i = len(c.xs) - 1
	}
	return c.xs[i]
}

// Points returns the (value, cumulative-probability) steps of the CDF,
// suitable for plotting Figure 2-style curves.
func (c *CDF) Points() (xs, ps []float64) {
	xs = make([]float64, len(c.xs))
	ps = make([]float64, len(c.ps))
	copy(xs, c.xs)
	copy(ps, c.ps)
	return
}

// Pearson returns the Pearson correlation coefficient of paired samples.
// It returns 0 with a nil error when either sample has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// RankOrder returns the indices of xs ordered from smallest to largest
// value — the "same hosts appear in the same order" fingerprint used to
// compare vantage points in Figure 9.
func RankOrder(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx
}

// RankAgreement returns the fraction of positions at which the rank
// orders of two paired samples agree. Identical orderings give 1.0.
func RankAgreement(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	rx, ry := RankOrder(xs), RankOrder(ys)
	match := 0
	for i := range rx {
		if rx[i] == ry[i] {
			match++
		}
	}
	return float64(match) / float64(len(rx)), nil
}

// Histogram counts string-keyed occurrences, used for the country
// histograms behind Figures 1 and 3.
type Histogram struct {
	counts map[string]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[string]int)}
}

// Add increments the count for key.
func (h *Histogram) Add(key string) { h.AddN(key, 1) }

// AddN increments the count for key by n.
func (h *Histogram) AddN(key string, n int) {
	h.counts[key] += n
	h.total += n
}

// Count returns the count for key.
func (h *Histogram) Count(key string) int { return h.counts[key] }

// Total returns the sum of all counts.
func (h *Histogram) Total() int { return h.total }

// Bin is one histogram bucket.
type Bin struct {
	Key   string
	Count int
}

// Sorted returns bins in descending count order, ties broken by key, so
// rendered tables are deterministic.
func (h *Histogram) Sorted() []Bin {
	bins := make([]Bin, 0, len(h.counts))
	for k, v := range h.counts {
		bins = append(bins, Bin{k, v})
	}
	sort.Slice(bins, func(i, j int) bool {
		if bins[i].Count != bins[j].Count {
			return bins[i].Count > bins[j].Count
		}
		return bins[i].Key < bins[j].Key
	})
	return bins
}
