package montecarlo

import (
	"afs/internal/core"
	"afs/internal/lattice"
	"afs/internal/noise"
)

// BatchTrials is the fused kernel's batch width: trials sampled per
// BatchSampler call. Big enough to amortize per-batch setup, small enough
// that a batch's structure-of-arrays block stays cache-resident.
const BatchTrials = 256

// chunkTally is one work chunk's outcome, accumulated locally and folded
// into the point's atomics once per chunk — the batch-granular accounting
// that keeps every per-trial cost out of the shared-state path.
type chunkTally struct {
	failures uint64
	defects  uint64
	w0       uint64 // trials resolved by the weight-0 fast path
	w1       uint64 // trials resolved by the weight-1 closed form
	w2       uint64 // trials resolved by the weight-2 closed form
	multi    uint64 // trials resolved by the pair/single decomposition
	full     uint64 // trials that fell through to the full decoder

	// Bit-plane kernel tallies (zero under the scalar kernel): lanes
	// resolved straight from plane algebra vs lanes whose defect lists
	// were gathered for the scalar path. bpFast+bpGathered == trials when
	// the bit-plane kernel ran the chunk.
	bpFast     uint64
	bpGathered uint64

	// Partial-residual peel tallies (core.Triage.PeelResidual): certified
	// components peeled off, trials fully resolved by the peel
	// decomposition without a decoder walk (those also count in multi),
	// full decodes that ran on a strictly smaller residual (those also
	// count in full), and the defect-count histogram of the residuals
	// actually decoded. Both kernels route every multi-defect (>= 3)
	// syndrome through the peel: the bit-plane kernel on its gathered
	// lanes, the scalar kernel fused into its triage loop (PeelResidual's
	// certified set contains classifyMulti's, test-enforced).
	peeled       uint64
	peelResolved uint64
	residual     uint64
	resHist      [5]uint64 // residual defect count: <=2, <=4, <=8, <=16, >16
}

// resBucket maps a residual defect count to its chunkTally.resHist bucket.
func resBucket(n int) int {
	switch {
	case n <= 2:
		return 0
	case n <= 4:
		return 1
	case n <= 8:
		return 2
	case n <= 16:
		return 3
	}
	return 4
}

// runner is the engine-facing contract both shot kernels satisfy: the
// scalar structure-of-arrays kernel and the bit-plane SWAR kernel.
type runner interface {
	reseed(seed1, seed2 uint64)
	run(n uint64) chunkTally
}

// newRunner picks the shot kernel for cfg.
func newRunner(cfg AccuracyConfig, g *lattice.Graph) runner {
	if cfg.BitPlane {
		return newBPKernel(cfg, g)
	}
	return newKernel(cfg, g)
}

// kernel is the fused sample+triage+decode pipeline for one measurement
// point: it pulls structure-of-arrays batches from a BatchSampler, resolves
// weight-<=2 syndromes through the closed-form triage layer, and routes
// only the heavy tail through the full decoder — folding corrections into
// the logical-cut parity instead of materializing residual data masks.
// A kernel is single-owner state; each engine worker builds its own per
// point, exactly like the decoder it wraps.
type kernel struct {
	g       *lattice.Graph
	s       *noise.BatchSampler
	dec     Decoder
	tri     *core.Triage
	cutEdge []bool // per edge: correction edge flips the logical cut
	triage  bool
	peel    bool // run PeelResidual on punted syndromes
	b       noise.Batch

	// failLog, when non-nil, records every trial's failure bit in order —
	// the hook the triage-equivalence property tests use to compare paths
	// trial for trial. Production runs leave it nil.
	failLog []bool
}

// newKernel builds the fused pipeline for cfg over graph g (which must be
// cfg.graph() or an equivalent). Seeding happens per chunk via reseed.
func newKernel(cfg AccuracyConfig, g *lattice.Graph) *kernel {
	k := &kernel{
		g:      g,
		s:      noise.NewBatchSampler(g, cfg.P, cfg.Seed, 0, g.NorthCutQubits()),
		dec:    cfg.New(g),
		triage: !cfg.DisableTriage,
	}
	k.cutEdge = k.s.CutEdges()
	if k.triage {
		k.tri = core.NewTriage(g)
		k.peel = !cfg.DisablePeel
	}
	return k
}

// reseed rewinds the kernel's random stream to the chunk stream
// PCG(seed1, seed2), preserving the engine's chunk-seeded determinism
// contract.
func (k *kernel) reseed(seed1, seed2 uint64) { k.s.Reseed(seed1, seed2) }

// run executes n trials and returns the chunk's tally. The loop touches no
// shared state: sampling, triage, decoding, and failure detection all work
// off kernel-local storage, and allocation is zero once the batch reaches
// its high-water mark (test-enforced).
func (k *kernel) run(n uint64) chunkTally {
	var t chunkTally
	for n > 0 {
		kk := BatchTrials
		if n < BatchTrials {
			kk = int(n)
		}
		k.s.SampleBatch(&k.b, kk)
		defOff := k.b.DefectOff
		for i := 0; i < kk; i++ {
			df := k.b.Defects[defOff[i]:defOff[i+1]]
			t.defects += uint64(len(df))
			par := k.b.CutParity[i]
			if k.triage {
				if len(df) == 0 {
					// Weight 0: identity correction, zero decoder work; the
					// sampled cut parity alone decides the trial.
					t.w0++
					if par {
						t.failures++
					}
					if k.failLog != nil {
						k.failLog = append(k.failLog, par)
					}
					continue
				}
				if k.peel && len(df) >= 3 {
					// Multi-defect syndromes go straight to the partial-
					// residual decomposition, exactly like the bit-plane
					// gather path: PeelResidual's certified-whole set
					// strictly contains classifyMulti's with identical
					// parity (test-enforced containment), so one pass
					// replaces the classify-then-peel double scan, peels
					// certified components off whatever remains ambiguous,
					// and hands the decoder only the residual (see
					// core.Triage.PeelResidual).
					df0 := len(df)
					pp, res, comps := k.tri.PeelResidual(df)
					t.peeled += uint64(comps)
					if pp {
						par = !par
					}
					if len(res) == 0 {
						// Everything certified: a pure pair/single/duo
						// decomposition resolved without a decoder walk.
						t.multi++
						t.peelResolved++
						if par {
							t.failures++
						}
						if k.failLog != nil {
							k.failLog = append(k.failLog, par)
						}
						continue
					}
					if len(res) < df0 {
						t.residual++
						t.resHist[resBucket(len(res))]++
					}
					df = res
				} else if class, p, ok := k.tri.ClassifySyndrome(df); ok {
					switch class {
					case core.TriageW1:
						t.w1++
					case core.TriageW2:
						t.w2++
					default:
						t.multi++
					}
					fail := par != p
					if fail {
						t.failures++
					}
					if k.failLog != nil {
						k.failLog = append(k.failLog, fail)
					}
					continue
				}
			}
			t.full++
			for _, e := range k.dec.Decode(df) {
				if k.cutEdge[e] {
					par = !par
				}
			}
			if par {
				t.failures++
			}
			if k.failLog != nil {
				k.failLog = append(k.failLog, par)
			}
		}
		n -= uint64(kk)
	}
	return t
}
