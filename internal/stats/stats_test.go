package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(xs); !almost(v, 32.0/7, 1e-12) {
		t.Fatalf("variance = %v", v)
	}
	if s := StdDev(xs); !almost(s, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("stddev = %v", s)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs mishandled")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := map[float64]float64{0: 1, 25: 2, 50: 3, 75: 4, 100: 5, 62.5: 3.5}
	for p, want := range cases {
		if got := Percentile(xs, p); !almost(got, want, 1e-12) {
			t.Errorf("P%.1f = %v, want %v", p, got, want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 5 || xs[4] != 4 {
		t.Fatal("Percentile mutated its input")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.Count != 1000 || s.Min != 0 || s.Max != 999 {
		t.Fatalf("summary bounds wrong: %+v", s)
	}
	if !almost(s.Median, 499.5, 1e-9) || !almost(s.Mean, 499.5, 1e-9) {
		t.Fatalf("summary center wrong: %+v", s)
	}
	if s.P99 < 985 || s.P99 > 995 || s.P999 < 997 {
		t.Fatalf("summary tails wrong: %+v", s)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	h.Add(-5)
	h.Add(1000)
	if h.Under != 1 || h.Over != 1 || h.Total != 102 {
		t.Fatalf("histogram counters: %+v", h)
	}
	for i := range h.Bins {
		if h.Bins[i] != 10 {
			t.Fatalf("bin %d = %d, want 10", i, h.Bins[i])
		}
		if c := h.BinCenter(i); !almost(c, float64(i*10+5), 1e-12) {
			t.Fatalf("bin center %d = %v", i, c)
		}
	}
}

func TestHistogramEdgeValueGoesToLastBin(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(9.9999999999)
	if h.Bins[9] != 1 {
		t.Fatal("near-edge value lost")
	}
}

func TestWilsonInterval(t *testing.T) {
	ci := WilsonInterval(10, 1000, 0.95)
	if ci.Rate != 0.01 {
		t.Fatalf("rate = %v", ci.Rate)
	}
	if ci.Lo >= ci.Rate || ci.Hi <= ci.Rate {
		t.Fatalf("interval does not bracket the rate: %+v", ci)
	}
	// Wilson 95% for 10/1000 is roughly [0.0054, 0.018].
	if ci.Lo < 0.004 || ci.Lo > 0.007 || ci.Hi < 0.015 || ci.Hi > 0.021 {
		t.Fatalf("interval off: %+v", ci)
	}
	zero := WilsonInterval(0, 1000, 0.95)
	if zero.Lo != 0 || zero.Hi < 0.001 || zero.Hi > 0.01 {
		t.Fatalf("zero-failure interval off: %+v", zero)
	}
	empty := WilsonInterval(0, 0, 0.95)
	if empty.Lo != 0 || empty.Hi != 1 {
		t.Fatalf("empty interval: %+v", empty)
	}
}

func TestBootstrapRateCIBracketsRate(t *testing.T) {
	ci := BootstrapRateCI(50, 10000, 2000, 0.95, 7)
	if ci.Lo > 0.005 || ci.Hi < 0.005 {
		t.Fatalf("bootstrap CI does not bracket: %+v", ci)
	}
	// Roughly binomial: sd ~ sqrt(p(1-p)/n) ~ 7e-4; CI width ~ 4 sd.
	width := ci.Hi - ci.Lo
	if width < 1e-3 || width > 6e-3 {
		t.Fatalf("bootstrap CI width implausible: %v", width)
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	a := BootstrapRateCI(5, 1000, 500, 0.95, 42)
	b := BootstrapRateCI(5, 1000, 500, 0.95, 42)
	if a != b {
		t.Fatal("same seed produced different bootstrap CIs")
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := map[float64]float64{
		0.5:    0,
		0.975:  1.959964,
		0.025:  -1.959964,
		0.9995: 3.290527,
	}
	for p, want := range cases {
		if got := normalQuantile(p); !almost(got, want, 1e-4) {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsInf(normalQuantile(0), -1) || !math.IsInf(normalQuantile(1), 1) {
		t.Fatal("extreme quantiles should be infinite")
	}
}

// TestFitTailRecoversExponential: samples from an exponential distribution
// have a log-linear CCDF; the fit must recover the decay rate and
// extrapolate within an order of magnitude.
func TestFitTailRecoversExponential(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	const lambda = 0.05
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() / lambda
	}
	fit, err := FitTail(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// True slope: log10 P(X>x) = -lambda*x*log10(e).
	wantB := -lambda * math.Log10(math.E)
	if math.Abs(fit.B-wantB)/math.Abs(wantB) > 0.15 {
		t.Fatalf("fitted slope %v, want ~%v", fit.B, wantB)
	}
	// Extrapolate P(X > 300) = exp(-15) ~ 3e-7.
	want := math.Exp(-lambda * 300)
	got := fit.Exceedance(300)
	if got < want/10 || got > want*10 {
		t.Fatalf("extrapolated %v, want within 10x of %v", got, want)
	}
	if fit.R2 < 0.95 {
		t.Fatalf("poor fit: R2 = %v", fit.R2)
	}
}

func TestFitTailErrors(t *testing.T) {
	if _, err := FitTail([]float64{1, 2, 3}, 0.9); err == nil {
		t.Fatal("tiny sample should not fit")
	}
	increasing := make([]float64, 1000)
	for i := range increasing {
		increasing[i] = 5 // constant: no decaying tail
	}
	if _, err := FitTail(increasing, 0.9); err == nil {
		t.Fatal("constant sample should not fit")
	}
}

func TestLinearRegression(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	a, b, r2 := linearRegression(xs, ys)
	if !almost(a, 1, 1e-9) || !almost(b, 2, 1e-9) || !almost(r2, 1, 1e-9) {
		t.Fatalf("fit = (%v, %v, %v)", a, b, r2)
	}
}

func TestBinomialSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	// Small-n exact path.
	var sum float64
	const iters = 20000
	for i := 0; i < iters; i++ {
		sum += float64(binomialSample(rng, 100, 0.02))
	}
	if m := sum / iters; math.Abs(m-2) > 0.1 {
		t.Fatalf("small-n binomial mean %v, want 2", m)
	}
	// Large-n normal path.
	sum = 0
	for i := 0; i < iters; i++ {
		sum += float64(binomialSample(rng, 100000, 0.5))
	}
	if m := sum / iters; math.Abs(m-50000) > 50 {
		t.Fatalf("large-n binomial mean %v, want 50000", m)
	}
	if binomialSample(rng, 10, 0) != 0 || binomialSample(rng, 10, 1) != 10 {
		t.Fatal("degenerate p mishandled")
	}
}

// TestSingleSampleSummary pins the n=1 edge: the unbiased variance is
// undefined at one sample, so StdDev reports the conventional 0 and every
// order statistic collapses to the sample itself.
func TestSingleSampleSummary(t *testing.T) {
	if got := StdDev([]float64{42}); got != 0 {
		t.Fatalf("StdDev(n=1) = %g, want 0", got)
	}
	s := Summarize([]float64{42})
	if s.Count != 1 || s.Mean != 42 || s.StdDev != 0 ||
		s.Min != 42 || s.Median != 42 || s.P99 != 42 || s.P999 != 42 || s.Max != 42 {
		t.Fatalf("Summarize(n=1) = %+v", s)
	}
}

// TestPercentileIgnoresNaN is the regression test for the NaN-poisoning
// bug: sort.Float64s orders NaN before every real number, so a single NaN
// sample used to surface as the minimum and poison every low percentile.
func TestPercentileIgnoresNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"nan-min", []float64{nan, 1, 2, 3}, 0, 1},
		{"nan-median", []float64{nan, nan, 1, 2, 3}, 50, 2},
		{"nan-max", []float64{3, nan, 1, 2}, 100, 3},
		{"clean", []float64{1, 2, 3}, 50, 2},
	} {
		if got := Percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("%s: Percentile(%v, %v) = %v, want %v", tc.name, tc.xs, tc.p, got, tc.want)
		}
	}
	if got := Percentile([]float64{nan, nan}, 50); !math.IsNaN(got) {
		t.Errorf("all-NaN sample: got %v, want NaN", got)
	}
}

// TestSummarizeDropsNaN: one unmeasurable sample must not poison the run's
// summary; Count reports what was actually summarized.
func TestSummarizeDropsNaN(t *testing.T) {
	s := Summarize([]float64{math.NaN(), 1, 3})
	if s.Count != 2 {
		t.Fatalf("Count = %d, want 2", s.Count)
	}
	if s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Fatalf("Summarize with NaN = %+v", s)
	}
	if math.IsNaN(s.StdDev) {
		t.Fatal("StdDev poisoned by NaN")
	}
	if got := Summarize([]float64{math.NaN()}); got != (Summary{}) {
		t.Fatalf("all-NaN Summarize = %+v, want zero Summary", got)
	}
}

// TestHistogramAddIgnoresNaN: NaN fails both range comparisons and int(NaN)
// is platform-defined — before the guard this was an index panic.
func TestHistogramAddIgnoresNaN(t *testing.T) {
	h := NewHistogram(0, 10, 4)
	h.Add(math.NaN())
	h.Add(5)
	if h.Total != 1 {
		t.Fatalf("Total = %d, want 1 (NaN ignored)", h.Total)
	}
}
