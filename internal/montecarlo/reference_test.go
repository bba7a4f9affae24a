package montecarlo

import (
	"testing"

	"afs/internal/stats"
)

// referenceLevel is the two-sided confidence of the intervals the
// reference check compares (z = 3.89), the level perfbench's output checks
// use: two 95% intervals of one true rate miss each other about once in
// twenty comparisons, which a check that outlives many random-stream
// changes cannot afford.
const referenceLevel = 0.9999

// TestLogicalRateMatchesReference pins Union-Find's logical error rate at
// four tier-1 points, the paper's Fig. 8 rows at p = 1e-2 among them, to
// stored reference intervals, so accuracy is checked against rates rather
// than against one random stream. Each reference is one long
// RunAccuracyStatic run (2^24 trials; seeds and provenance in
// EXPERIMENTS.md, "Accuracy reference intervals"). Both the production
// engine and the plain Sampler-then-full-decode path must land inside it:
// a sampler, triage, peel or decoder change that shifts the rate by more
// than sampling noise fails here whatever seed it draws. Each point runs
// enough trials to expect at least ~300 failures.
func TestLogicalRateMatchesReference(t *testing.T) {
	for _, ref := range []struct {
		name                   string
		d, rounds              int
		p                      float64
		trials                 uint64
		refTrials, refFailures uint64
	}{
		{"2D d=5 p=0.05", 5, 1, 0.05, 200_000, 1 << 24, 506873},
		{"3D d=3 p=0.01", 3, 0, 0.01, 200_000, 1 << 24, 176519},
		{"3D d=5 p=0.01", 5, 0, 0.01, 200_000, 1 << 24, 56600},
		{"3D d=7 p=0.01", 7, 0, 0.01, 400_000, 1 << 24, 13235},
	} {
		want := stats.WilsonInterval(ref.refFailures, ref.refTrials, referenceLevel)
		cfg := AccuracyConfig{
			Distance: ref.d, Rounds: ref.rounds, P: ref.p, Trials: ref.trials, Seed: 29, Workers: 2, New: ufFactory,
		}
		for _, run := range []struct {
			name string
			f    func(AccuracyConfig) AccuracyResult
		}{{"RunAccuracy", RunAccuracy}, {"RunAccuracyStatic", RunAccuracyStatic}} {
			r := run.f(cfg)
			got := stats.WilsonInterval(r.Failures, r.Trials, referenceLevel)
			t.Logf("%s %s: %d/%d failures", ref.name, run.name, r.Failures, r.Trials)
			if got.Hi < want.Lo || got.Lo > want.Hi {
				t.Errorf("%s %s: %d/%d failures, interval [%.5g, %.5g], misses reference [%.5g, %.5g]",
					ref.name, run.name, r.Failures, r.Trials, got.Lo, got.Hi, want.Lo, want.Hi)
			}
		}
	}
}

// TestThresholdBracket checks that the distance curves cross between
// p = 2.4% and 2.8%, as in the paper's Fig. 8: below the crossing the
// larger code fails less often, above it more often. At each p the d=3
// and d=7 Wilson intervals at referenceLevel must be disjoint and ordered.
func TestThresholdBracket(t *testing.T) {
	const trials = 200_000
	rate := func(d int, p float64) stats.RateCI {
		r := RunAccuracy(AccuracyConfig{Distance: d, P: p, Trials: trials, Seed: 5, Workers: 2, New: ufFactory})
		ci := stats.WilsonInterval(r.Failures, r.Trials, referenceLevel)
		t.Logf("d=%d p=%g: %d/%d failures, interval [%.4g, %.4g]", d, p, r.Failures, r.Trials, ci.Lo, ci.Hi)
		return ci
	}
	for _, c := range []struct {
		p       float64
		d7Lower bool
	}{{0.024, true}, {0.028, false}} {
		d3, d7 := rate(3, c.p), rate(7, c.p)
		lo, hi := d7, d3
		if !c.d7Lower {
			lo, hi = d3, d7
		}
		if lo.Hi >= hi.Lo {
			t.Errorf("p=%g: d=3 interval [%.4g, %.4g] and d=7 interval [%.4g, %.4g] overlap or are out of order (d=7 lower: %v)",
				c.p, d3.Lo, d3.Hi, d7.Lo, d7.Hi, c.d7Lower)
		}
	}
}
