package montecarlo

import (
	"math/bits"

	"afs/internal/core"
	"afs/internal/lattice"
	"afs/internal/noise"
)

// bpKernel is the bit-plane shot kernel (AccuracyConfig.BitPlane): the
// fused pipeline rebuilt around 64-trial lane groups. One PlaneSampler
// walk fills a group's defect planes, core.LaneTriage classifies all 64
// lanes in one fused word-parallel pass, and lanes resolve in two tiers:
//
//   - fast-pathed, straight from plane algebra with no per-lane loop at
//     all: W0 (fail = sampled cut parity bit), W1 off the north-parity
//     plane, Matched lanes (perfect matching of adjacent pairs — parity
//     0, covering both the adjacent W2 pair and the heavy all-pairs
//     decomposition), Chain4 lanes (pairs plus exactly one 4-defect
//     path — the dominant conflicted shape, also parity 0), and
//     SinglesOK lanes (pairs plus independent boundary singles — parity
//     from the single-parity plane). Their failure bits and tallies are
//     popcounts over mask words.
//   - gathered: the remainder (conflicted adjacency, deep or crowded
//     singles, W2 punt band, W1 ties) has its per-lane defect lists
//     extracted from the classifier's compact defect list — vertex order
//     ascends, so lists arrive sorted — and runs the existing scalar
//     core.Triage / full-decoder path, with core.Triage.PeelResidual
//     stripping certified components off punted lanes before the decoder
//     sees them.
//
// The fast/gathered split is what the afs_mc_bitplane_* counters publish;
// fast + gathered == trials by construction.
//
// Triage-class tallies keep the scalar kernel's semantics (Matched,
// Chain4, and SinglesOK heavy lanes count as TriageMulti — they are
// precisely pair/chain/single decompositions resolved without a walk), so
// the partition invariant w0+w1+w2+multi+full == trials carries over
// unchanged.
type bpKernel struct {
	g       *lattice.Graph
	s       *noise.PlaneSampler
	dec     Decoder
	tri     *core.Triage
	lt      *core.LaneTriage
	cutEdge []bool
	triage  bool
	peel    bool // run PeelResidual on gathered lanes the scalar triage punts
	pg      noise.PlaneGroup

	// Per-lane gather scratch, reused across groups: defect lists for the
	// gathered lanes.
	lists [64][]int32

	// failLog, when non-nil, records every trial's failure bit in lane
	// order (== trial order) for the parity property tests.
	failLog []bool
}

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
	return k
}

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
// of n alone, so for the engine's fixed chunking the trial streams are
// deterministic exactly as in the scalar kernel.
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
			w1Fast := cls.W1 &^ cls.TieAny
			resolved := (cls.Matched | cls.Chain4) & (cls.W2 | cls.Heavy)
			singles := cls.SinglesOK & (cls.W2 | cls.Heavy)
			fast := cls.W0 | w1Fast | resolved | singles
			// Bulk resolution: the fast classes are disjoint (Chain4
			// requires a conflict, Matched forbids one, SinglesOK needs
			// an isolated defect, Chain4 forbids one), and each one's
			// failure bits are a mask expression — Matched and Chain4
			// lanes have parity 0, so the sampled cut bit alone decides.
			failMask = cls.W0&cut |
				w1Fast&(cut^cls.NorthParity) |
				resolved&cut |
				singles&(cut^cls.SingleParity)
			t.w0 += uint64(bits.OnesCount64(cls.W0))
			t.w1 += uint64(bits.OnesCount64(w1Fast))
			t.w2 += uint64(bits.OnesCount64((resolved | singles) & cls.W2))
			t.multi += uint64(bits.OnesCount64((resolved | singles) & cls.Heavy))
			t.bpFast += uint64(bits.OnesCount64(fast))

			if gather := mask &^ fast; gather != 0 {
				// Gather scan over the classifier's compact defect list
				// (ascending vertex order → sorted lists), then the scalar
				// triage / full-decode path per gathered lane. The scan is
				// core.LaneTriage.GatherLanes, shared with the streaming
				// lane batcher.
				k.lt.GatherLanes(gather, &k.lists)
				for gw := gather; gw != 0; {
					lane := bits.TrailingZeros64(gw)
					gw &^= 1 << uint(lane)
					bit := uint64(1) << uint(lane)
					par := cut&bit != 0
					df := k.lists[lane]
					var fail bool
					t.bpGathered++
					if k.peel && len(df) >= 3 {
						// Multi-defect lanes go straight to the partial-
						// residual decomposition: its certified-whole set
						// strictly contains classifyMulti's with identical
						// parity (test-enforced containment), so one
						// PeelResidual pass replaces the classify-then-peel
						// double scan, peels certified components off
						// whatever remains ambiguous, and hands the decoder
						// only the residual (see core.Triage.PeelResidual).
						pp, res, comps := k.tri.PeelResidual(df)
						t.peeled += uint64(comps)
						if len(res) == 0 {
							// Everything certified: a pure pair/single/duo
							// decomposition resolved without a decoder walk.
							t.multi++
							t.peelResolved++
							fail = par != pp
						} else {
							t.full++
							if len(res) < len(df) {
								t.residual++
								t.resHist[resBucket(len(res))]++
							}
							fail = k.fullDecode(res, par != pp)
						}
					} else if class, p, ok := k.tri.ClassifySyndrome(df); ok {
						switch class {
						case core.TriageW1:
							t.w1++
						case core.TriageW2:
							t.w2++
						default:
							t.multi++
						}
						fail = par != p
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
	return t
}
