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
// three tier-1 points to stored reference intervals, so accuracy is
// checked against rates rather than against one random stream. Each
// reference is one long RunAccuracyStatic run (2^24 trials; seeds and
// provenance in EXPERIMENTS.md, "Accuracy reference intervals"). Both the
// production engine and the plain Sampler-then-full-decode path must land
// inside it: a sampler, triage, peel or decoder change that shifts the
// rate by more than sampling noise fails here whatever seed it draws.
func TestLogicalRateMatchesReference(t *testing.T) {
	const trials = 200_000
	for _, ref := range []struct {
		name                   string
		d, rounds              int
		p                      float64
		refTrials, refFailures uint64
	}{
		{"2D d=5 p=0.05", 5, 1, 0.05, 1 << 24, 506873},
		{"3D d=3 p=0.01", 3, 0, 0.01, 1 << 24, 176519},
		{"3D d=5 p=0.01", 5, 0, 0.01, 1 << 24, 56600},
	} {
		want := stats.WilsonInterval(ref.refFailures, ref.refTrials, referenceLevel)
		cfg := AccuracyConfig{
			Distance: ref.d, Rounds: ref.rounds, P: ref.p, Trials: trials, Seed: 29, Workers: 2, New: ufFactory,
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
