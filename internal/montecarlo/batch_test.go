package montecarlo

import (
	"os"
	"testing"
	"time"

	"afs/internal/core"
	"afs/internal/lattice"
	"afs/internal/noise"
)

func leanUFFactory(g *lattice.Graph) Decoder {
	return core.NewDecoder(g, core.Options{LeanStats: true})
}

// The kernel never materializes a residual data error: it folds a full
// decode's cut-edge crossings into the lane's sampled cut parity. That
// must equal the direct route, trial for trial — rebuild each lane's net
// data error from the plane sampler's fault log, apply the decoder's
// correction (ApplyCorrection) and take the residual's parity over the
// cut (Bitset.Parity). The untriaged kernel decodes every lane, so the
// check covers every trial.
func TestBatchKernelMatchesScalarPath(t *testing.T) {
	for _, tc := range []struct {
		d int
		p float64
	}{{3, 0.01}, {5, 0.003}, {7, 0.001}, {5, 0.02}} {
		const trials, chunk = 3072 + 40, 1024 // a partial tail group
		cfg := AccuracyConfig{Distance: tc.d, P: tc.p, Seed: 7, New: ufFactory, DisableTriage: true}
		got := runLoggedBP(cfg, trials, chunk)

		g := cfg.graph()
		cut := g.NorthCutQubits()
		dec := ufFactory(g)
		var nets [64]noise.Bitset
		var pg noise.PlaneGroup
		var trial noise.Trial
		var residual noise.Bitset
		var want []bool
		for c := uint64(0); c*chunk < trials; c++ {
			s := noise.NewPlaneSampler(g, tc.p, cfg.Seed, c, cut)
			s.FaultLog = func(edge int32, lane int) {
				if ed := &g.Edges[edge]; ed.Kind == lattice.Spatial {
					nets[lane].Flip(int(ed.Qubit))
				}
			}
			for left := min(chunk, trials-c*chunk); left > 0; {
				k := int(min(64, left))
				for lane := range nets {
					nets[lane].Resize(g.NumDataQubits())
					nets[lane].Clear()
				}
				s.SampleGroup(&pg, k)
				for lane := 0; lane < k; lane++ {
					trial.Defects = pg.AppendLaneDefects(lane, trial.Defects[:0])
					trial.NetData = nets[lane]
					ApplyCorrection(g, dec.Decode(trial.Defects), &trial, &residual)
					want = append(want, residual.Parity(cut))
				}
				left -= uint64(k)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("d=%d p=%g: kernel logged %d trials, reference %d", tc.d, tc.p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("d=%d p=%g: trial %d: kernel=%v scalar=%v", tc.d, tc.p, i, got[i], want[i])
			}
		}
	}
}

// Triage-class tallies must partition the trial count, and the engine must
// report them through AccuracyResult.
func TestTriageTalliesPartitionTrials(t *testing.T) {
	res := RunAccuracy(AccuracyConfig{
		Distance: 5, P: 0.003, Trials: 20000, Seed: 5, Workers: 2, New: leanUFFactory,
	})
	sum := res.TriageW0 + res.TriageW1 + res.TriageW2 + res.TriageMulti + res.FullDecodes
	if sum != res.Trials {
		t.Fatalf("triage classes sum to %d, trials %d", sum, res.Trials)
	}
	if res.TriageW0 == 0 || res.TriageW1 == 0 || res.TriageW2 == 0 || res.TriageMulti == 0 {
		t.Fatalf("expected every fast class to fire at d=5 p=0.003: %+v", res)
	}
	res = RunAccuracy(AccuracyConfig{
		Distance: 5, P: 0.003, Trials: 20000, Seed: 5, Workers: 2, New: leanUFFactory,
		DisableTriage: true,
	})
	if res.FullDecodes != res.Trials || res.TriageW0+res.TriageW1+res.TriageW2+res.TriageMulti != 0 {
		t.Fatalf("DisableTriage still triaged: %+v", res)
	}

	// Under early stopping Trials < TrialsRequested; the classes must
	// partition the executed trials, not the requested ones.
	res = RunAccuracy(AccuracyConfig{
		Distance: 3, P: 0.01, Trials: 1 << 22, Seed: 5, Workers: 2, New: leanUFFactory,
		StopRelCI: 0.2,
	})
	if !res.EarlyStopped || res.Trials >= res.TrialsRequested {
		t.Fatalf("early stopping did not fire: executed %d of %d", res.Trials, res.TrialsRequested)
	}
	if sum := res.TriageW0 + res.TriageW1 + res.TriageW2 + res.TriageMulti + res.FullDecodes; sum != res.Trials {
		t.Fatalf("triage classes sum to %d under early stopping, executed trials %d", sum, res.Trials)
	}
}

// TestFractionsPartitionWithFusedPeel audits the tallies on the fused
// pipeline: at a heavy near-threshold point, where every gathered
// multi-defect lane goes through PeelResidual, the triage classes must
// still partition the executed trials exactly, and the peel tallies must
// stay subsets of the classes they refine (PeelResolved of TriageMulti,
// ResidualDecodes of FullDecodes).
func TestFractionsPartitionWithFusedPeel(t *testing.T) {
	res := RunAccuracy(AccuracyConfig{
		Distance: 7, P: 0.02, Trials: 20000, Seed: 12, Workers: 2, New: leanUFFactory,
	})
	if sum := res.TriageW0 + res.TriageW1 + res.TriageW2 + res.TriageMulti + res.FullDecodes; sum != res.Trials {
		t.Fatalf("triage classes sum to %d, trials %d", sum, res.Trials)
	}
	if res.PeelResolved == 0 || res.ResidualDecodes == 0 {
		t.Fatalf("peel never fired at a heavy point: %+v", res)
	}
	if res.PeelResolved > res.TriageMulti {
		t.Fatalf("PeelResolved %d exceeds TriageMulti %d — not a refinement",
			res.PeelResolved, res.TriageMulti)
	}
	if res.ResidualDecodes > res.FullDecodes {
		t.Fatalf("ResidualDecodes %d exceeds FullDecodes %d — not a refinement",
			res.ResidualDecodes, res.FullDecodes)
	}
}

// TestPerfSmokeWeight0FastPath is the CI perf-smoke gate: at a weight-0
// dominated operating point the kernel must sustain a pinned throughput
// floor. The floor is ~10x below observed dev-machine numbers
// so only a real fast-path regression (not CI jitter) trips it. Enabled by
// AFS_PERF_SMOKE=1.
func TestPerfSmokeWeight0FastPath(t *testing.T) {
	if os.Getenv("AFS_PERF_SMOKE") == "" {
		t.Skip("set AFS_PERF_SMOKE=1 to run the pinned-floor perf smoke")
	}
	const floorTPS = 2_000_000.0
	cfg := AccuracyConfig{Distance: 3, P: 1e-4, Seed: 1, New: leanUFFactory}
	k := newBPKernel(cfg, cfg.graph())
	k.reseed(cfg.Seed, 0)
	k.run(1 << 16) // warm
	const trials = 1 << 21
	start := time.Now()
	tally := k.run(trials)
	tps := float64(trials) / time.Since(start).Seconds()
	w0Frac := float64(tally.w0) / float64(trials)
	t.Logf("weight-0 fast path: %.2fM trials/s (w0 fraction %.4f)", tps/1e6, w0Frac)
	if w0Frac < 0.95 {
		t.Fatalf("operating point not weight-0 dominated (w0 %.3f); smoke floor meaningless", w0Frac)
	}
	if tps < floorTPS {
		t.Fatalf("weight-0 fast-path throughput %.0f trials/s below pinned floor %.0f", tps, floorTPS)
	}
}
