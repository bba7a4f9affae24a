package montecarlo

import (
	"math/bits"

	"afs/internal/core"
	"afs/internal/lattice"
	"afs/internal/noise"
)

// BatchTrials is the trial batch width of sample-only replays of the
// kernel's draws (noise.BatchSampler.SampleBatch) and of the kernel
// tests' warm-up runs. Any width replays the same trials: BatchSampler
// hands out the kernel's 64-lane groups lane by lane.
const BatchTrials = 256

// chunkTally is one work chunk's outcome, accumulated locally and folded
// into the point's atomics once per chunk — the batch-granular accounting
// that keeps every per-trial cost out of the shared-state path.
type chunkTally struct {
	failures uint64
	defects  uint64
	w0       uint64 // weight-0 trials
	w1       uint64 // weight-1 trials resolved without a decoder walk
	w2       uint64 // weight-2 trials resolved without a decoder walk
	multi    uint64 // weight >= 3 trials resolved without a decoder walk
	full     uint64 // trials that fell through to the full decoder

	// Lane tallies: lanes resolved straight from plane algebra vs lanes
	// whose defect lists were gathered for the scalar certificate and
	// decoder path; bpFast+bpGathered == trials.
	bpFast     uint64
	bpGathered uint64

	// Partial-residual peel tallies (core.Triage.PeelResidual): certified
	// components peeled off, trials fully resolved by the peel
	// decomposition without a decoder walk (those also count in multi),
	// full decodes that ran on a strictly smaller residual (those also
	// count in full), and the defect-count histogram of the residuals
	// actually decoded. Every gathered multi-defect (>= 3) lane goes
	// through the peel unless DisablePeel is set.
	peeled       uint64
	peelResolved uint64
	residual     uint64
	resHist      [5]uint64 // residual defect count: <=2, <=4, <=8, <=16, >16

	greedy uint64 // decodes the decoder solved by its inexact fallback
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

// bpKernel is the Monte-Carlo shot kernel: the fused sample, triage and
// decode pipeline for one measurement point, built around 64-trial lane
// groups. One PlaneSampler walk fills a group's defect planes,
// core.LaneTriage classifies all 64 lanes in one fused word-parallel
// pass, and lanes resolve in two tiers:
//
//   - fast: the lanes the plane certificate certifies (cls.Certified:
//     adjacent pairs plus strict-side B = 1 singles, W0 lanes included),
//     resolved with no per-lane loop at all. A lane's correction parity is
//     its singles' north parity (cls.SingleParity), so its failure bit is
//     that parity XOR the sampled cut bit, and failures and tallies are
//     popcounts over mask words.
//   - gathered: every other lane has its defect list extracted from the
//     classifier's compact defect list — vertex order ascends, so lists
//     arrive sorted — and runs the scalar certificate,
//     core.Triage.PeelResidual: the closed forms at weight <= 2, and at
//     heavier weights certified components (4-paths among them) stripped
//     off before the decoder sees the residual. Corrections are never
//     materialized: a full decode's cut-edge crossings fold into the
//     lane's sampled cut parity.
//
// The fast/gathered split is what the afs_mc_bitplane_* counters publish;
// fast + gathered == trials by construction.
//
// Triage-class tallies: w0, w1 and w2 count the resolved trials of weight
// 0, 1 and 2, and multi the weight >= 3 trials resolved without a decoder
// walk — certified heavy lanes, and gathered lanes the peel certifies
// whole — so w0+w1+w2+multi+full == trials.
//
// A kernel is single-owner state; each engine worker builds its own per
// point, exactly like the decoder it wraps. Its lane classifier shares the
// graph's cached tables, so a build costs little more than the decoder.
type bpKernel struct {
	g       *lattice.Graph
	s       *noise.PlaneSampler
	dec     Decoder
	fb      fallbackCounter // dec, if it has an inexact fallback
	fbSeen  uint64          // fb's count at the end of the last chunk
	tri     *core.Triage
	lt      *core.LaneTriage
	cutEdge []bool
	triage  bool
	peel    bool // peel gathered lanes of weight >= 3 (else decode them whole)
	pg      noise.PlaneGroup

	// Per-lane gather scratch, reused across groups: defect lists for the
	// gathered lanes.
	lists [64][]int32

	// failLog, when non-nil, records every trial's failure bit in lane
	// order (== trial order) for the parity property tests.
	failLog []bool
}

// newBPKernel builds the kernel for cfg over graph g (cfg.graph() or an
// equivalent). Seeding happens per chunk via reseed.
func newBPKernel(cfg AccuracyConfig, g *lattice.Graph) *bpKernel {
	k := &bpKernel{
		g:      g,
		s:      noise.NewPlaneSampler(g, cfg.P, cfg.Seed, 0, g.NorthCutQubits()),
		dec:    cfg.New(g),
		tri:    core.NewTriage(g),
		lt:     core.NewLaneTriage(g),
		triage: !cfg.DisableTriage,
	}
	k.peel = k.triage && !cfg.DisablePeel
	k.cutEdge = k.s.CutEdges()
	k.fb, _ = k.dec.(fallbackCounter)
	return k
}

// reseed rewinds the kernel's random stream to the chunk stream
// PCG(seed1, seed2), the engine's chunk-seeded determinism contract.
func (k *bpKernel) reseed(seed1, seed2 uint64) { k.s.Reseed(seed1, seed2) }

// fullDecode resolves one lane through the full decoder, folding the
// correction's cut-edge crossings into the sampled parity.
func (k *bpKernel) fullDecode(df []int32, par bool) bool {
	for _, e := range k.dec.Decode(df) {
		if k.cutEdge[e] {
			par = !par
		}
	}
	return par
}

// run executes n trials in groups of up to 64 lanes and returns the
// chunk's tally. Allocation is zero once the gather lists reach their
// high-water mark (test-enforced). The group decomposition is a function
// of n alone, so for the engine's fixed chunking each chunk's trials are a
// pure function of its seed.
func (k *bpKernel) run(n uint64) chunkTally {
	var t chunkTally
	for n > 0 {
		kk := 64
		if n < 64 {
			kk = int(n)
		}
		k.s.SampleGroup(&k.pg, kk)
		mask := k.pg.LaneMask
		cut := k.pg.CutParity
		var failMask uint64

		if k.triage {
			cls := k.lt.Classify(k.pg.Defects, k.pg.Touched, mask)
			t.defects += uint64(cls.Defects)
			fast := cls.Certified
			failMask = fast & (cut ^ cls.SingleParity)
			t.w0 += uint64(bits.OnesCount64(cls.W0))
			t.w1 += uint64(bits.OnesCount64(fast & cls.W1))
			t.w2 += uint64(bits.OnesCount64(fast & cls.W2))
			t.multi += uint64(bits.OnesCount64(fast & cls.Heavy))
			t.bpFast += uint64(bits.OnesCount64(fast))

			if gather := mask &^ fast; gather != 0 {
				// Gather scan over the classifier's compact defect list
				// (ascending vertex order → sorted lists), then the scalar
				// triage / full-decode path per gathered lane.
				k.lt.GatherLists(gather, &k.lists)
				for gw := gather; gw != 0; {
					lane := bits.TrailingZeros64(gw)
					gw &^= 1 << uint(lane)
					bit := uint64(1) << uint(lane)
					par := cut&bit != 0
					df := k.lists[lane]
					var fail bool
					t.bpGathered++
					if k.peel || len(df) <= 2 {
						// The scalar certificate: weight <= 2 resolves
						// whole by its closed forms or not at all; heavier
						// lanes peel certified components off and hand the
						// decoder only the residual (see
						// core.Triage.PeelResidual).
						pp, res, comps := k.tri.PeelResidual(df)
						t.peeled += uint64(comps)
						if len(res) == 0 {
							// Gathered lanes are never empty, so a resolved
							// one is W1, W2 or a whole-peeled heavy lane.
							switch len(df) {
							case 1:
								t.w1++
							case 2:
								t.w2++
							default:
								t.multi++
								t.peelResolved++
							}
							fail = par != pp
						} else {
							t.full++
							if len(res) < len(df) {
								t.residual++
								t.resHist[resBucket(len(res))]++
							}
							fail = k.fullDecode(res, par != pp)
						}
					} else {
						t.full++
						fail = k.fullDecode(df, par)
					}
					if fail {
						failMask |= bit
					}
				}
			}
		} else {
			// Untriaged mode: every lane is gathered and fully decoded —
			// the ablation baseline, and the reference side of the
			// triaged-vs-full bit-identity property tests.
			for lane := 0; lane < kk; lane++ {
				k.lists[lane] = k.lists[lane][:0]
			}
			for wi, tw := range k.pg.Touched {
				base := wi << 6
				for tw != 0 {
					b := bits.TrailingZeros64(tw)
					tw &^= 1 << uint(b)
					v := int32(base + b)
					for lw := k.pg.Defects[v] & mask; lw != 0; {
						lane := bits.TrailingZeros64(lw)
						lw &^= 1 << uint(lane)
						k.lists[lane] = append(k.lists[lane], v)
						t.defects++
					}
				}
			}
			for lane := 0; lane < kk; lane++ {
				bit := uint64(1) << uint(lane)
				t.full++
				t.bpGathered++
				if k.fullDecode(k.lists[lane], cut&bit != 0) {
					failMask |= bit
				}
			}
		}

		t.failures += uint64(bits.OnesCount64(failMask))
		if k.failLog != nil {
			for lane := 0; lane < kk; lane++ {
				k.failLog = append(k.failLog, failMask>>uint(lane)&1 != 0)
			}
		}
		n -= uint64(kk)
	}
	if k.fb != nil {
		n := k.fb.GreedyFallbacks()
		t.greedy, k.fbSeen = n-k.fbSeen, n
	}
	return t
}
