package montecarlo

import (
	"math"
	"os"
	"testing"
	"time"

	"afs/internal/core"
	"afs/internal/noise"
)

// runLoggedBP executes n trials through the bit-plane kernel with the
// per-trial failure log enabled, chunk-seeded exactly like the engine.
func runLoggedBP(cfg AccuracyConfig, n, chunk uint64) []bool {
	k := newBPKernel(cfg, cfg.graph())
	k.failLog = make([]bool, 0, n)
	for c := uint64(0); c*chunk < n; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		k.reseed(cfg.Seed, c)
		k.run(hi - lo)
	}
	return k.failLog
}

// The bit-plane analogue of TestTriagedBitIdenticalToFullPath: at every
// (d, p) of the tier-1 sweep, the lane fast paths (W0/W1/Paired plane
// algebra, captured-pair W2, gathered scalar triage) must produce
// bit-identical logical outcomes, trial for trial, to routing every lane
// through the full decoder on the same sampled planes.
func TestBitPlaneTriagedBitIdenticalToFullPath(t *testing.T) {
	const trials, chunk = 4096, 1024
	for _, d := range []int{3, 5, 7, 9, 11} {
		for _, p := range []float64{0.001, 0.003, 0.01} {
			for name, factory := range map[string]Factory{
				"uf":           ufFactory,
				"uf-lean":      leanUFFactory,
				"hierarchical": hierFactory,
			} {
				cfg := AccuracyConfig{Distance: d, P: p, Seed: 42, New: factory}
				triaged := runLoggedBP(cfg, trials, chunk)
				cfg.DisableTriage = true
				full := runLoggedBP(cfg, trials, chunk)
				if len(triaged) != trials || len(full) != trials {
					t.Fatalf("d=%d p=%g %s: logged %d/%d of %d trials",
						d, p, name, len(triaged), len(full), trials)
				}
				for i := range triaged {
					if triaged[i] != full[i] {
						t.Fatalf("d=%d p=%g %s: trial %d: triaged=%v full=%v",
							d, p, name, i, triaged[i], full[i])
					}
				}
			}
		}
	}
	// MWPM cross-check at small d (its decode is much slower).
	for _, d := range []int{3, 5} {
		cfg := AccuracyConfig{Distance: d, P: 0.01, Seed: 23, New: mwpmFactory}
		triaged := runLoggedBP(cfg, 2048, 512)
		cfg.DisableTriage = true
		full := runLoggedBP(cfg, 2048, 512)
		for i := range triaged {
			if triaged[i] != full[i] {
				t.Fatalf("d=%d mwpm: trial %d: triaged=%v full=%v", d, i, triaged[i], full[i])
			}
		}
	}
}

// The bit-plane kernel must reproduce, trial for trial, the straightforward
// per-lane scalar resolution of the SAME plane-sampled trials: extract each
// lane's sorted defect list, resolve it through the weight <= 2 closed
// forms (core.Triage.PeelResidual's base case), and fully decode everything
// else. This pins every piece of the lane machinery — weight masks, the
// certified mask and its single parity, and the gather scan — against the
// code path the repo already trusts. The reference
// deliberately decodes heavier lanes whole (no peel), so agreement here
// also differentially validates the kernel's partial-residual peel against
// undecomposed decodes on exactly the syndrome population the kernel sees.
func TestBitPlaneKernelMatchesPerLaneReference(t *testing.T) {
	for _, tc := range []struct {
		d int
		p float64
	}{{3, 0.01}, {5, 0.003}, {7, 0.001}, {5, 0.02}, {9, 0.005}} {
		const trials, chunk = 3072, 1024
		cfg := AccuracyConfig{Distance: tc.d, P: tc.p, Seed: 7, New: ufFactory}
		got := runLoggedBP(cfg, trials, chunk)

		g := cfg.graph()
		dec := ufFactory(g)
		tri := core.NewTriage(g)
		var pg noise.PlaneGroup
		var buf []int32
		var want []bool
		for c := uint64(0); c*chunk < trials; c++ {
			s := noise.NewPlaneSampler(g, tc.p, cfg.Seed, c, g.NorthCutQubits())
			cutEdge := s.CutEdges()
			remaining := uint64(chunk)
			if c*chunk+remaining > trials {
				remaining = trials - c*chunk
			}
			for remaining > 0 {
				kk := 64
				if remaining < 64 {
					kk = int(remaining)
				}
				s.SampleGroup(&pg, kk)
				for lane := 0; lane < kk; lane++ {
					buf = pg.AppendLaneDefects(lane, buf[:0])
					par := pg.CutParity&(1<<uint(lane)) != 0
					if p, res, _ := tri.PeelResidual(buf); len(buf) <= 2 && len(res) == 0 {
						want = append(want, par != p)
					} else {
						for _, e := range dec.Decode(buf) {
							if cutEdge[e] {
								par = !par
							}
						}
						want = append(want, par)
					}
				}
				remaining -= uint64(kk)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("d=%d p=%g: logged %d trials, reference %d", tc.d, tc.p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("d=%d p=%g: trial %d: kernel=%v reference=%v", tc.d, tc.p, i, got[i], want[i])
			}
		}
	}
}

// Engine determinism: bit-plane results must be identical across worker
// counts.
func TestBitPlaneEngineWorkerInvariance(t *testing.T) {
	base := AccuracyConfig{
		Distance: 5, P: 0.005, Trials: 30000, Seed: 77, New: leanUFFactory,
	}
	base.Workers = 1
	one := RunAccuracy(base)
	base.Workers = 4
	four := RunAccuracy(base)
	if one.Failures != four.Failures || one.Trials != four.Trials {
		t.Fatalf("worker count changed bit-plane results: 1w=%d/%d 4w=%d/%d",
			one.Failures, one.Trials, four.Failures, four.Trials)
	}
}

// Tallies: the triage classes must partition the trials, and the
// bit-plane fast/gathered lane split must partition them too.
func TestBitPlaneTalliesPartitionTrials(t *testing.T) {
	res := RunAccuracy(AccuracyConfig{
		Distance: 5, P: 0.003, Trials: 20000, Seed: 5, Workers: 2, New: leanUFFactory,
	})
	if sum := res.TriageW0 + res.TriageW1 + res.TriageW2 + res.TriageMulti + res.FullDecodes; sum != res.Trials {
		t.Fatalf("triage classes sum to %d, trials %d", sum, res.Trials)
	}
	if sum := res.BitPlaneFastLanes + res.BitPlaneGatheredLanes; sum != res.Trials {
		t.Fatalf("bit-plane lanes sum to %d, trials %d", sum, res.Trials)
	}
	if res.BitPlaneFastLanes == 0 || res.BitPlaneGatheredLanes == 0 {
		t.Fatalf("expected both lane tiers to fire at d=5 p=0.003: %+v", res)
	}
}

// Seeded distribution equivalence at the engine level: the bit-plane
// kernel and the plain scalar path (RunAccuracyStatic: noise.Sampler
// trials, full decode, residual parity) sample from the same per-site
// Bernoulli distribution, so their measured logical error rates over a
// large fixed-seed run must agree within tight Monte-Carlo tolerance
// (~6 sigma; both runs are deterministic, so this never flakes).
func TestBitPlaneLogicalRateMatchesScalarKernel(t *testing.T) {
	base := AccuracyConfig{
		Distance: 3, P: 0.01, Trials: 300000, Seed: 31, Workers: 4, New: leanUFFactory,
	}
	scalar := RunAccuracyStatic(base)
	base.Seed = 77 // independent stream on purpose: this is a distribution check
	plane := RunAccuracy(base)
	rs, rp := scalar.LogicalErrorRate, plane.LogicalErrorRate
	// Pooled ~6-sigma bound on the difference of two binomial rates.
	n := float64(base.Trials)
	pool := (rs + rp) / 2
	sigma := math.Sqrt(2 * pool * (1 - pool) / n)
	if math.Abs(rs-rp) > 6*sigma {
		t.Fatalf("logical error rates diverge: scalar %.5g bit-plane %.5g (6σ=%.5g)",
			rs, rp, 6*sigma)
	}
	if math.Abs(scalar.MeanDefects-plane.MeanDefects)/scalar.MeanDefects > 0.02 {
		t.Fatalf("mean defects diverge: scalar %.4f bit-plane %.4f",
			scalar.MeanDefects, plane.MeanDefects)
	}
}

// Steady-state bit-plane decoding must not allocate. The measured pass
// replays the warmed chunk (per-lane gather lists grow to the high-water
// mark of the trials they have seen; replaying makes "steady state"
// deterministic rather than hostage to extreme-value record growth).
func TestBitPlaneKernelZeroAllocSteadyState(t *testing.T) {
	for _, p := range []float64{0.001, 0.02} {
		cfg := AccuracyConfig{Distance: 11, P: p, Seed: 9, New: leanUFFactory}
		k := newBPKernel(cfg, cfg.graph())
		k.reseed(cfg.Seed, 0)
		k.run(4 * BatchTrials) // reach the high-water mark
		avg := testing.AllocsPerRun(20, func() {
			k.reseed(cfg.Seed, 0)
			k.run(BatchTrials)
		})
		if avg != 0 {
			t.Fatalf("p=%g: bit-plane kernel allocates %.1f times per batch in steady state", p, avg)
		}
	}
}

// TestPerfSmokeBitPlaneKernel pins the kernel's floors at the paper's
// design point (d=11, p=1e-3), where its speedup over per-trial
// processing lives, so a regression that silently falls back to scalar
// speed trips here. Three floors: raw throughput (set ~2x under dev-machine
// numbers, so only real regressions — not CI jitter — fail), the
// machine-independent fast-lane fraction (0.9148 at this seed; a broken
// pair or single rule drops it far below the 0.90 floor), and
// the machine-independent residual-peel fraction — the share of
// full-decoder visits that peeling resolved or shrank (0.986 at this
// seed; a broken PeelResidual certificate or kernel wiring drops it far
// below 0.60). Enabled by AFS_PERF_SMOKE=1.
func TestPerfSmokeBitPlaneKernel(t *testing.T) {
	if os.Getenv("AFS_PERF_SMOKE") == "" {
		t.Skip("set AFS_PERF_SMOKE=1 to run the pinned-floor perf smoke")
	}
	const floorTPS = 1_500_000.0
	const floorFastFrac = 0.90
	const floorPeelFrac = 0.60
	cfg := AccuracyConfig{Distance: 11, P: 1e-3, Seed: 1, New: leanUFFactory}
	k := newBPKernel(cfg, cfg.graph())
	k.reseed(cfg.Seed, 0)
	k.run(1 << 16) // warm
	const trials = 1 << 21
	start := time.Now()
	tally := k.run(trials)
	tps := float64(trials) / time.Since(start).Seconds()
	fastFrac := float64(tally.bpFast) / float64(trials)
	peelFrac := float64(tally.residual+tally.peelResolved) / float64(tally.full+tally.peelResolved)
	t.Logf("bit-plane kernel: %.2fM trials/s (fast-lane fraction %.4f, peel fraction %.4f)",
		tps/1e6, fastFrac, peelFrac)
	if tally.bpFast+tally.bpGathered != trials {
		t.Fatalf("lane tallies %d+%d do not partition %d trials", tally.bpFast, tally.bpGathered, trials)
	}
	if tps < floorTPS {
		t.Fatalf("bit-plane throughput %.0f trials/s below pinned floor %.0f", tps, floorTPS)
	}
	if fastFrac < floorFastFrac {
		t.Fatalf("fast-lane fraction %.4f below pinned floor %.2f", fastFrac, floorFastFrac)
	}
	if peelFrac < floorPeelFrac {
		t.Fatalf("residual-peel fraction %.4f below pinned floor %.2f", peelFrac, floorPeelFrac)
	}
}

// BenchmarkBitPlaneKernel measures the shot kernel at the paper's design
// point (d=11, p=0.001); ns/op is ns per trial. BENCH_6.json records this
// against the since-removed scalar batch kernel's 515 ns/trial.
func BenchmarkBitPlaneKernel(b *testing.B) {
	benchBPKernel(b, false, false)
}

// BenchmarkBitPlaneKernelUntriaged isolates the lane fast paths'
// contribution.
func BenchmarkBitPlaneKernelUntriaged(b *testing.B) {
	benchBPKernel(b, true, false)
}

// BenchmarkBitPlaneKernelNoPeel ablates only the partial-residual peel —
// the same-run baseline the BENCH_7 comparison uses (it is the BENCH_6
// kernel's routing: punted lanes decode whole).
func BenchmarkBitPlaneKernelNoPeel(b *testing.B) {
	benchBPKernel(b, false, true)
}

func benchBPKernel(b *testing.B, disableTriage, disablePeel bool) {
	cfg := AccuracyConfig{
		Distance: 11, P: 0.001, Seed: 2, New: leanUFFactory,
		DisableTriage: disableTriage, DisablePeel: disablePeel,
	}
	k := newBPKernel(cfg, cfg.graph())
	k.reseed(cfg.Seed, 0)
	k.run(4 * BatchTrials)
	b.ReportAllocs()
	b.ResetTimer()
	k.run(uint64(b.N))
}
