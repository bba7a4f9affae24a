package montecarlo

import (
	"runtime"
	"testing"

	"afs/internal/lattice"
	"afs/internal/noise"
)

// TestFailuresIndependentOfWorkerCount is the engine's reproducibility
// contract: per-chunk seeding makes the result a pure function of
// (Seed, Trials, ChunkTrials), bit-identical for every worker count —
// something the legacy per-worker striping could not offer.
func TestFailuresIndependentOfWorkerCount(t *testing.T) {
	base := AccuracyConfig{Distance: 5, P: 0.02, Trials: 20000, Seed: 7, New: ufFactory}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var ref AccuracyResult
	for i, w := range counts {
		cfg := base
		cfg.Workers = w
		r := RunAccuracy(cfg)
		if r.Trials != base.Trials {
			t.Fatalf("workers=%d executed %d trials, want %d", w, r.Trials, base.Trials)
		}
		if i == 0 {
			ref = r
			if ref.Failures == 0 {
				t.Fatal("test point produced no failures; pick a harder point")
			}
			continue
		}
		if r.Failures != ref.Failures {
			t.Fatalf("workers=%d: failures %d != reference %d", w, r.Failures, ref.Failures)
		}
		if r.MeanDefects != ref.MeanDefects {
			t.Fatalf("workers=%d: mean defects %g != reference %g", w, r.MeanDefects, ref.MeanDefects)
		}
		if r.CI != ref.CI {
			t.Fatalf("workers=%d: CI differs", w)
		}
	}
}

// TestChunkingIsPartOfTheContract documents that ChunkTrials participates
// in seeding: a different chunk size is a different (equally valid)
// random experiment.
func TestChunkingIsPartOfTheContract(t *testing.T) {
	base := AccuracyConfig{Distance: 3, P: 0.03, Trials: 8192, Seed: 3, New: ufFactory}
	a := RunAccuracy(base)
	smaller := base
	smaller.ChunkTrials = 256
	b := RunAccuracy(smaller)
	c := RunAccuracy(smaller)
	if b.Failures != c.Failures {
		t.Fatalf("same chunking not reproducible: %d vs %d", b.Failures, c.Failures)
	}
	if a.Trials != b.Trials {
		t.Fatalf("chunk size changed executed trials: %d vs %d", a.Trials, b.Trials)
	}
}

func TestEarlyStoppingCutsEasyPoints(t *testing.T) {
	// d=3 at p=0.05 fails every ~30 trials; ±20% relative CI needs only a
	// few thousand trials, far below the 10^6 budget.
	cfg := AccuracyConfig{
		Distance: 3, P: 0.05, Trials: 1_000_000, Seed: 13, Workers: 2,
		New: ufFactory, StopRelCI: 0.2,
	}
	r := RunAccuracy(cfg)
	if !r.EarlyStopped {
		t.Fatal("easy point did not early-stop")
	}
	if r.Trials >= r.TrialsRequested {
		t.Fatalf("early stop executed the full budget: %d of %d", r.Trials, r.TrialsRequested)
	}
	if r.Trials < DefaultChunkTrials {
		t.Fatalf("executed only %d trials", r.Trials)
	}
	if r.Failures < cfg.stopMinFailures() {
		t.Fatalf("stopped with %d failures, below the %d gate", r.Failures, cfg.stopMinFailures())
	}
	// The estimate must still be sane: compare against a fixed-budget run.
	full := RunAccuracy(AccuracyConfig{
		Distance: 3, P: 0.05, Trials: 50_000, Seed: 99, New: ufFactory,
	})
	if r.LogicalErrorRate < full.LogicalErrorRate/2 || r.LogicalErrorRate > full.LogicalErrorRate*2 {
		t.Fatalf("early-stopped rate %g implausible vs reference %g",
			r.LogicalErrorRate, full.LogicalErrorRate)
	}
}

func TestEarlyStoppingOffByDefault(t *testing.T) {
	r := RunAccuracy(AccuracyConfig{Distance: 3, P: 0.05, Trials: 30000, Seed: 13, New: ufFactory})
	if r.EarlyStopped || r.Trials != 30000 {
		t.Fatalf("default config stopped early: %+v", r)
	}
}

// TestMeanDefectsWeightedByExecutedTrials guards the aggregation fix: with
// more workers than trials, the legacy code divided the per-worker means
// by the worker count, counting idle workers as zero-defect shares.
func TestMeanDefectsWeightedByExecutedTrials(t *testing.T) {
	cfg := AccuracyConfig{Distance: 5, P: 0.02, Trials: 3, Workers: 8, Seed: 21, New: ufFactory}
	r := RunAccuracy(cfg)
	if r.Trials != 3 {
		t.Fatalf("executed %d trials", r.Trials)
	}
	solo := cfg
	solo.Workers = 1
	ref := RunAccuracy(solo)
	if r.MeanDefects != ref.MeanDefects {
		t.Fatalf("mean defects depends on worker count: %g vs %g", r.MeanDefects, ref.MeanDefects)
	}
	if r.MeanDefects <= 0 {
		t.Fatalf("mean defects %g, want > 0 at p=0.02", r.MeanDefects)
	}
	// Same property on the legacy path, where the bug lived.
	legacy := RunAccuracyStatic(cfg)
	legacySolo := RunAccuracyStatic(solo)
	if legacy.MeanDefects == 0 || legacySolo.MeanDefects == 0 {
		t.Fatal("legacy path reports zero mean defects")
	}
	if legacy.MeanDefects < legacySolo.MeanDefects/3 {
		t.Fatalf("legacy mean defects still diluted by idle workers: %g vs %g",
			legacy.MeanDefects, legacySolo.MeanDefects)
	}
}

// TestEngineAgreesWithLegacyStatistically: the engine and the retained
// legacy executor sample different random streams, so rates differ by
// Monte-Carlo noise only — their confidence intervals must overlap.
func TestEngineAgreesWithLegacyStatistically(t *testing.T) {
	cfg := AccuracyConfig{Distance: 3, P: 0.02, Trials: 60000, Seed: 17, Workers: 2, New: ufFactory}
	a := RunAccuracy(cfg)
	b := RunAccuracyStatic(cfg)
	if a.Failures == 0 || b.Failures == 0 {
		t.Fatalf("expected failures from both executors: %d, %d", a.Failures, b.Failures)
	}
	if a.CI.Lo > b.CI.Hi || b.CI.Lo > a.CI.Hi {
		t.Fatalf("engine CI [%g,%g] and legacy CI [%g,%g] do not overlap",
			a.CI.Lo, a.CI.Hi, b.CI.Lo, b.CI.Hi)
	}
}

func BenchmarkDecode(b *testing.B) {
	// The steady-state Monte-Carlo inner loop at the paper's design point:
	// one sampled syndrome, one Union-Find decode, one residual check.
	g := lattice.Cached3D(11, 11)
	dec := ufFactory(g)
	s := noise.NewSampler(g, 1e-3, 7, 1)
	cut := g.NorthCutQubits()
	var trial noise.Trial
	var residual noise.Bitset
	var failures uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(&trial)
		corr := dec.Decode(trial.Defects)
		ApplyCorrection(g, corr, &trial, &residual)
		if residual.Parity(cut) {
			failures++
		}
	}
	_ = failures
}
