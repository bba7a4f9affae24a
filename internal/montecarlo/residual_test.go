// Tests for the partial-residual peel wiring: failure-bit identity with
// peeling ablated, tally coherence through the engine, and the DisablePeel
// switch. The peel's soundness certificate itself is tested in
// internal/core (residual_test.go); these tests pin the kernel's use of it.
package montecarlo

import (
	"testing"
)

// Peeling must not change any trial's logical outcome — it only moves work
// from the full decoder to closed forms. Peel on vs off, trial for trial,
// for the Union-Find decoder and for the hierarchical router the facade's
// Hierarchical kind runs with the peel on.
// (TestBitPlaneTriagedBitIdenticalToFullPath separately checks the peeled
// pipeline against the fully untriaged path.)
func TestPeelBitIdenticalToUnpeeled(t *testing.T) {
	const trials, chunk = 4096, 1024
	for _, tc := range []struct {
		d int
		p float64
	}{{5, 0.01}, {7, 0.005}, {9, 0.003}} {
		for name, factory := range map[string]Factory{
			"uf-lean":      leanUFFactory,
			"hierarchical": hierFactory,
		} {
			cfg := AccuracyConfig{Distance: tc.d, P: tc.p, Seed: 42, New: factory}
			peeled := runLoggedBP(cfg, trials, chunk)
			cfg.DisablePeel = true
			plain := runLoggedBP(cfg, trials, chunk)
			if len(peeled) != trials || len(plain) != trials {
				t.Fatalf("d=%d p=%g %s: logged %d/%d of %d trials",
					tc.d, tc.p, name, len(peeled), len(plain), trials)
			}
			for i := range peeled {
				if peeled[i] != plain[i] {
					t.Fatalf("d=%d p=%g %s: trial %d: peeled=%v unpeeled=%v",
						tc.d, tc.p, name, i, peeled[i], plain[i])
				}
			}
		}
	}
}

// The peel tallies must cohere with the triage-class partition: resolved
// trials are a subset of TriageMulti, residual decodes a subset of
// FullDecodes, the defect histogram partitions the residual decodes, and
// every peel outcome accounts for at least one peeled component. Run at an
// operating point with a real heavy tail so the tallies are exercised.
func TestPeelTalliesCoherent(t *testing.T) {
	res := RunAccuracy(AccuracyConfig{
		Distance: 7, P: 0.01, Trials: 40000, Seed: 5, Workers: 2, New: leanUFFactory,
	})
	if sum := res.TriageW0 + res.TriageW1 + res.TriageW2 + res.TriageMulti + res.FullDecodes; sum != res.Trials {
		t.Fatalf("triage classes sum to %d, trials %d", sum, res.Trials)
	}
	if res.PeeledComponents == 0 || res.PeelResolved == 0 || res.ResidualDecodes == 0 {
		t.Fatalf("peel never fired at d=7 p=0.01: %+v", res)
	}
	if res.PeelResolved > res.TriageMulti {
		t.Fatalf("peel-resolved %d exceeds TriageMulti %d", res.PeelResolved, res.TriageMulti)
	}
	if res.ResidualDecodes > res.FullDecodes {
		t.Fatalf("residual decodes %d exceed FullDecodes %d", res.ResidualDecodes, res.FullDecodes)
	}
	var hist uint64
	for _, n := range res.ResidualDefects {
		hist += n
	}
	if hist != res.ResidualDecodes {
		t.Fatalf("residual histogram sums to %d, residual decodes %d", hist, res.ResidualDecodes)
	}
	// Every resolved trial and every residual decode peeled >= 1
	// component.
	if res.PeeledComponents < res.PeelResolved+res.ResidualDecodes {
		t.Fatalf("%d components cannot cover %d resolved + %d residual trials",
			res.PeeledComponents, res.PeelResolved, res.ResidualDecodes)
	}
	if res.PeelResolved+res.ResidualDecodes > res.Trials {
		t.Fatalf("%d resolved + %d residual trials exceed %d trials",
			res.PeelResolved, res.ResidualDecodes, res.Trials)
	}
}

// DisablePeel (and DisableTriage, which implies it) must zero every peel
// tally.
func TestDisablePeelZeroesTallies(t *testing.T) {
	base := AccuracyConfig{
		Distance: 7, P: 0.01, Trials: 20000, Seed: 5, Workers: 2, New: leanUFFactory,
	}
	for _, cfg := range []AccuracyConfig{
		func() AccuracyConfig { c := base; c.DisablePeel = true; return c }(),
		func() AccuracyConfig { c := base; c.DisableTriage = true; return c }(),
	} {
		res := RunAccuracy(cfg)
		if res.PeeledComponents != 0 || res.PeelResolved != 0 || res.ResidualDecodes != 0 {
			t.Fatalf("peel tallies nonzero with peeling disabled (%+v): %+v", cfg, res)
		}
		for i, n := range res.ResidualDefects {
			if n != 0 {
				t.Fatalf("residual histogram bucket %d nonzero with peeling disabled", i)
			}
		}
	}
}
