package montecarlo

import (
	"math"
	"slices"
	"testing"

	"afs/internal/core"
	"afs/internal/hierarchical"
	"afs/internal/lattice"
	"afs/internal/mwpm"
	"afs/internal/noise"
)

func ufFactory(g *lattice.Graph) Decoder   { return core.NewDecoder(g, core.Options{}) }
func mwpmFactory(g *lattice.Graph) Decoder { return mwpm.NewDecoder(g) }

// hierFactory builds the decoder the facade's Hierarchical kind runs.
func hierFactory(g *lattice.Graph) Decoder {
	return hierarchical.New(g, core.NewDecoder(g, core.Options{LeanStats: true}))
}

func TestZeroNoiseNeverFails(t *testing.T) {
	r := RunAccuracy(AccuracyConfig{Distance: 5, P: 0, Trials: 1000, Seed: 1, New: ufFactory})
	if r.Failures != 0 {
		t.Fatalf("p=0 produced %d failures", r.Failures)
	}
	if r.LogicalErrorRate != 0 || r.MeanDefects != 0 {
		t.Fatalf("p=0 stats wrong: %+v", r)
	}
}

func TestDeterministicGivenSeedAndWorkers(t *testing.T) {
	cfg := AccuracyConfig{Distance: 5, P: 0.02, Trials: 20000, Seed: 7, Workers: 1, New: ufFactory}
	a := RunAccuracy(cfg)
	b := RunAccuracy(cfg)
	if a.Failures != b.Failures {
		t.Fatalf("same seed produced %d vs %d failures", a.Failures, b.Failures)
	}
}

// TestBelowThresholdSuppression: at p well below the UF threshold, larger
// distance must suppress the logical error rate (the defining property of
// Figure 8).
func TestBelowThresholdSuppression(t *testing.T) {
	r3 := RunAccuracy(AccuracyConfig{Distance: 3, P: 0.01, Trials: 60000, Seed: 3, New: ufFactory})
	r7 := RunAccuracy(AccuracyConfig{Distance: 7, P: 0.01, Trials: 60000, Seed: 3, New: ufFactory})
	if r7.LogicalErrorRate >= r3.LogicalErrorRate {
		t.Fatalf("no suppression: d=3 %.4g vs d=7 %.4g",
			r3.LogicalErrorRate, r7.LogicalErrorRate)
	}
	if r3.LogicalErrorRate == 0 {
		t.Fatal("d=3 at p=0.01 should show failures in 60k trials")
	}
}

// TestRepeated2DDegradesWithDistance reproduces the paper's Figure 3(b)
// effect: a 2-D decoder under noisy measurements gets WORSE with distance.
func TestRepeated2DDegradesWithDistance(t *testing.T) {
	r3 := RunRepeated2D(AccuracyConfig{Distance: 3, P: 0.01, Trials: 20000, Seed: 5, New: ufFactory})
	r7 := RunRepeated2D(AccuracyConfig{Distance: 7, P: 0.01, Trials: 20000, Seed: 5, New: ufFactory})
	if r7.LogicalErrorRate <= r3.LogicalErrorRate {
		t.Fatalf("repeated-2D should degrade with d: d=3 %.4g vs d=7 %.4g",
			r3.LogicalErrorRate, r7.LogicalErrorRate)
	}
}

// RunRepeated2D seeds per fixed chunk, like the engine, so its failure
// count is a function of (Seed, Trials, ChunkTrials) alone: the Figure
// 3(b) transcript must not depend on the host's core count.
func TestRepeated2DIndependentOfWorkerCount(t *testing.T) {
	base := AccuracyConfig{Distance: 5, P: 0.01, Trials: 40000, Seed: 3, New: ufFactory}
	var ref AccuracyResult
	for i, w := range []int{1, 2, 3} {
		cfg := base
		cfg.Workers = w
		r := RunRepeated2D(cfg)
		if r.Trials != base.Trials {
			t.Fatalf("workers=%d ran %d trials, want %d", w, r.Trials, base.Trials)
		}
		if i == 0 {
			ref = r
			if ref.Failures == 0 {
				t.Fatal("test point produced no failures; pick a harder point")
			}
			continue
		}
		if r.Failures != ref.Failures || r.CI != ref.CI {
			t.Fatalf("workers=%d: %d failures, 1 worker %d", w, r.Failures, ref.Failures)
		}
	}
}

// TestMWPMAtLeastAsAccurateAsUF2D: on the 2-D perfect-measurement problem,
// exact matching is the more accurate decoder (UF approximates it); see
// checkMWPMAgainstUF.
func TestMWPMAtLeastAsAccurateAsUF2D(t *testing.T) {
	checkMWPMAgainstUF(t, lattice.Cached2D(5), 0.03, 9)
}

// TestMWPMAtLeastAsAccurateAsUF3D is the same check on the d=5
// phenomenological cycle.
func TestMWPMAtLeastAsAccurateAsUF3D(t *testing.T) {
	checkMWPMAgainstUF(t, lattice.Cached3D(5, 5), 0.01, 10)
}

// checkMWPMAgainstUF decodes the same sampled syndromes with Union-Find and
// exact MWPM. Where MWPM stayed exact (its greedy-fallback count did not
// move), both corrections must reproduce the syndrome and MWPM's must be
// no heavier: every edge has unit weight, so the weight is the edge count.
// Over all trials, MWPM may fail more often than Union-Find only by
// Monte-Carlo noise: at most z = 3.89 standard deviations of a sign test
// over the trials where exactly one of them fails.
func checkMWPMAgainstUF(t *testing.T, g *lattice.Graph, p float64, seed uint64) {
	t.Helper()
	const groups = 64 // 4,096 trials
	uf := core.NewDecoder(g, core.Options{LeanStats: true})
	mw := mwpm.NewDecoder(g)
	s := noise.NewPlaneSampler(g, p, seed, 0, g.NorthCutQubits())
	cutEdge := s.CutEdges()
	fails := func(par bool, corr []int32) bool {
		for _, e := range corr {
			par = par != cutEdge[e]
		}
		return par
	}
	var pg noise.PlaneGroup
	var defs []int32
	var exact, heavierUF, ufFails, mwFails, discordant int
	for n := 0; n < groups; n++ {
		s.SampleGroup(&pg, 64)
		for lane := 0; lane < 64; lane++ {
			defs = pg.AppendLaneDefects(lane, defs[:0])
			par := pg.CutParity>>uint(lane)&1 != 0
			cu := slices.Clone(uf.Decode(defs))
			greedy := mw.GreedyFallbacks()
			cm := mw.Decode(defs)
			fu, fm := fails(par, cu), fails(par, cm)
			if fu {
				ufFails++
			}
			if fm {
				mwFails++
			}
			if fu != fm {
				discordant++
			}
			if len(defs) == 0 || mw.GreedyFallbacks() != greedy {
				continue
			}
			exact++
			if !slices.Equal(core.SyndromeOf(g, cu), defs) || !slices.Equal(core.SyndromeOf(g, cm), defs) {
				t.Fatalf("%v defects %v: a correction misses the syndrome (uf %v, mwpm %v)", g, defs, cu, cm)
			}
			if len(cm) > len(cu) {
				t.Fatalf("%v defects %v: MWPM weight %d exceeds Union-Find's %d", g, defs, len(cm), len(cu))
			}
			if len(cu) > len(cm) {
				heavierUF++
			}
		}
	}
	if exact == 0 || heavierUF == 0 {
		t.Fatalf("%v: vacuous: %d exact decodes, %d with a heavier Union-Find correction", g, exact, heavierUF)
	}
	if excess := float64(mwFails - ufFails); excess > 3.89*math.Sqrt(float64(discordant)) {
		t.Fatalf("%v: MWPM %d failures against Union-Find %d over %d discordant trials", g, mwFails, ufFails, discordant)
	}
	t.Logf("%v: %d exact decodes, Union-Find heavier on %d; failures MWPM %d, Union-Find %d, discordant %d",
		g, exact, heavierUF, mwFails, ufFails, discordant)
}

func TestCIBracketsRate(t *testing.T) {
	r := RunAccuracy(AccuracyConfig{Distance: 3, P: 0.02, Trials: 30000, Seed: 11, New: ufFactory})
	if r.Failures == 0 {
		t.Fatal("expected failures at d=3, p=0.02")
	}
	if r.CI.Lo > r.LogicalErrorRate || r.CI.Hi < r.LogicalErrorRate {
		t.Fatalf("CI [%g,%g] does not bracket %g", r.CI.Lo, r.CI.Hi, r.LogicalErrorRate)
	}
}

func TestApplyCorrectionResidual(t *testing.T) {
	g := lattice.New2D(5)
	trial := noise.Trial{NetData: noise.NewBitset(g.NumDataQubits())}
	trial.NetData.Set(3)
	var residual noise.Bitset
	// Correction on the same qubit cancels the error.
	ApplyCorrection(g, []int32{g.SpatialEdge(3, 0)}, &trial, &residual)
	if residual.PopCount() != 0 {
		t.Fatal("matching correction left residual")
	}
	// Correction elsewhere leaves both.
	ApplyCorrection(g, []int32{g.SpatialEdge(7, 0)}, &trial, &residual)
	if residual.PopCount() != 2 || !residual.Get(3) || !residual.Get(7) {
		t.Fatal("residual wrong")
	}
}

func TestWorkerSplitCoversAllTrials(t *testing.T) {
	// 7 trials over 3 workers must still run exactly 7 trials.
	r := RunAccuracy(AccuracyConfig{Distance: 3, P: 0.01, Trials: 7, Workers: 3, Seed: 1, New: ufFactory})
	if r.Trials != 7 {
		t.Fatalf("trials = %d", r.Trials)
	}
}
