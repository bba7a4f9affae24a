// Package stats provides the statistical machinery used by the AFS
// evaluation: summary statistics, exact percentiles, histograms, bootstrap
// confidence intervals for Monte-Carlo failure rates, and log-linear tail
// extrapolation for estimating rare-event probabilities (such as the CDA
// timeout-failure probability, which is far below the reach of direct
// Monte-Carlo sampling).
package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or 0 when fewer than
// two samples are available.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. NaN samples are ignored; if no real
// samples remain the result is NaN. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	sorted := sortedClean(xs)
	if len(sorted) == 0 {
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

// sortedClean returns a sorted copy of xs with NaN samples dropped.
// sort.Float64s places NaNs before all real numbers, so the NaN prefix is
// trimmed with one scan.
func sortedClean(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	i := 0
	for i < len(sorted) && math.IsNaN(sorted[i]) {
		i++
	}
	return sorted[i:]
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the summary statistics reported for latency distributions
// in the paper's evaluation (mean, median, p99, p99.9, min/max).
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Median float64
	P99    float64
	P999   float64
	Max    float64
}

// Summarize computes a Summary of xs. NaN samples are dropped first — one
// propagating NaN would otherwise poison every field — and Count reports
// the samples actually summarized. A single sample yields StdDev 0 (the
// unbiased estimator is undefined at n=1; 0 is the conventional report).
// The input is not modified.
func Summarize(xs []float64) Summary {
	sorted := sortedClean(xs)
	if len(sorted) == 0 {
		return Summary{}
	}
	return Summary{
		Count:  len(sorted),
		Mean:   Mean(sorted),
		StdDev: StdDev(sorted),
		Min:    sorted[0],
		Median: percentileSorted(sorted, 50),
		P99:    percentileSorted(sorted, 99),
		P999:   percentileSorted(sorted, 99.9),
		Max:    sorted[len(sorted)-1],
	}
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Samples outside
// the range are accumulated in Under/Over.
type Histogram struct {
	Lo, Hi float64
	Bins   []uint64
	Under  uint64
	Over   uint64
	Total  uint64
}

// NewHistogram creates a histogram with n bins spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]uint64, n)}
}

// Add records one sample. NaN is ignored: it fails both range comparisons,
// and the bin-index conversion int(NaN) is platform-defined — historically
// an out-of-range index panic waiting on the first NaN latency.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.Total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
		if i == len(h.Bins) { // guard against floating-point edge
			i--
		}
		h.Bins[i]++
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + (float64(i)+0.5)*w
}

// Density returns the fraction of all samples that fell into bin i.
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Bins[i]) / float64(h.Total)
}

// RateCI is a two-sided confidence interval for a Bernoulli rate.
type RateCI struct {
	Rate     float64
	Lo, Hi   float64
	Level    float64 // e.g. 0.95
	Failures uint64
	Trials   uint64
}

// WilsonInterval returns the Wilson score interval for k failures out of n
// trials at the given confidence level (two-sided, via normal quantile).
func WilsonInterval(k, n uint64, level float64) RateCI {
	ci := RateCI{Level: level, Failures: k, Trials: n}
	if n == 0 {
		ci.Lo, ci.Hi = 0, 1
		return ci
	}
	p := float64(k) / float64(n)
	ci.Rate = p
	z := normalQuantile(0.5 + level/2)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	ci.Lo = math.Max(0, center-half)
	ci.Hi = math.Min(1, center+half)
	return ci
}

// BootstrapRateCI computes a percentile-bootstrap confidence interval for a
// Bernoulli failure rate with k failures out of n trials, using b bootstrap
// resamples drawn from the empirical distribution. This mirrors the
// bootstrap technique the paper cites [Young, arXiv:1210.3781].
func BootstrapRateCI(k, n uint64, b int, level float64, seed uint64) RateCI {
	ci := RateCI{Level: level, Failures: k, Trials: n}
	if n == 0 {
		ci.Lo, ci.Hi = 0, 1
		return ci
	}
	p := float64(k) / float64(n)
	ci.Rate = p
	if b <= 0 {
		b = 1000
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	rates := make([]float64, b)
	for i := range rates {
		rates[i] = float64(binomialSample(rng, n, p)) / float64(n)
	}
	sort.Float64s(rates)
	alpha := (1 - level) / 2
	ci.Lo = percentileSorted(rates, alpha*100)
	ci.Hi = percentileSorted(rates, (1-alpha)*100)
	return ci
}

// binomialSample draws from Binomial(n, p). For large n it uses a normal
// approximation (accurate enough for bootstrap resampling of rates); for
// small n it sums Bernoulli draws exactly.
func binomialSample(rng *rand.Rand, n uint64, p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	nf := float64(n)
	if nf*p > 30 && nf*(1-p) > 30 {
		x := math.Round(rng.NormFloat64()*math.Sqrt(nf*p*(1-p)) + nf*p)
		if x < 0 {
			return 0
		}
		if x > nf {
			return n
		}
		return uint64(x)
	}
	// Exact for the common sparse case: count geometric skips.
	var k uint64
	logq := math.Log1p(-p)
	var sum float64
	for {
		sum += math.Log(rng.Float64()) / logq
		if sum > nf {
			break
		}
		k++
		if k >= n {
			return n
		}
	}
	return k
}

// normalQuantile returns the inverse standard normal CDF via the
// Acklam/Beasley-Springer-Moro rational approximation (relative error
// < 1.15e-9, far more precision than any use in this package needs).
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		if p <= 0 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// ErrTailFit is returned when a tail fit cannot be performed (too few
// distinct tail samples).
var ErrTailFit = errors.New("stats: insufficient tail data for fit")

// TailFit is a fitted exponential tail model log10 P(X > x) = A + B*x,
// obtained by least-squares regression of the empirical log-CCDF over the
// extreme quantiles of a sample. It is used to extrapolate rare-event
// probabilities (e.g. the probability that a CDA decoding round exceeds the
// 350 ns timeout threshold) beyond the reach of direct sampling.
type TailFit struct {
	A, B    float64 // log10 P(X > x) = A + B*x
	XMin    float64 // left edge of the fitted region
	NPoints int     // number of (x, log10 ccdf) points used
	R2      float64 // coefficient of determination of the fit
}

// FitTail fits an exponential tail to the upper (1-q0) fraction of the
// sample (q0 in (0,1), e.g. 0.99 fits the top 1%). The sample slice is not
// modified.
func FitTail(xs []float64, q0 float64) (TailFit, error) {
	if len(xs) < 100 || q0 <= 0 || q0 >= 1 {
		return TailFit{}, ErrTailFit
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := len(sorted)
	start := int(q0 * float64(n))
	if n-start < 10 {
		return TailFit{}, ErrTailFit
	}
	// Build (x, log10 ccdf) points at distinct x values in the tail.
	var px, py []float64
	for i := start; i < n; i++ {
		if i > start && sorted[i] == sorted[i-1] {
			continue // keep the first (largest ccdf) point per distinct x
		}
		ccdf := float64(n-i) / float64(n)
		px = append(px, sorted[i])
		py = append(py, math.Log10(ccdf))
	}
	if len(px) < 5 {
		return TailFit{}, ErrTailFit
	}
	a, b, r2 := linearRegression(px, py)
	if b >= 0 {
		return TailFit{}, ErrTailFit // tail must decay
	}
	return TailFit{A: a, B: b, XMin: sorted[start], NPoints: len(px), R2: r2}, nil
}

// Exceedance returns the extrapolated P(X > x) under the fitted tail model.
func (t TailFit) Exceedance(x float64) float64 {
	return math.Pow(10, t.A+t.B*x)
}

// linearRegression fits y = a + b*x by ordinary least squares and returns
// (a, b, R^2).
func linearRegression(xs, ys []float64) (a, b, r2 float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return a, b, 1
	}
	var ssRes float64
	for i := range xs {
		e := ys[i] - (a + b*xs[i])
		ssRes += e * e
	}
	r2 = 1 - ssRes/ssTot
	return a, b, r2
}
