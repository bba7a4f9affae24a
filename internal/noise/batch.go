package noise

import (
	"math/bits"

	"afs/internal/lattice"
)

// Batch is a structure-of-arrays block of K sampled trials: all trials'
// defect lists in one slice, offsets delimiting each trial. All storage is
// reused by the next SampleBatch call.
type Batch struct {
	// K is the number of trials currently held.
	K int
	// DefectOff has K+1 entries; trial i's defects (sorted ascending) are
	// Defects[DefectOff[i]:DefectOff[i+1]].
	DefectOff []int32
	Defects   []int32
	// CutParity[i] is the parity of trial i's net data error over the
	// sampler's logical cut — the XOR over sampled cut-qubit spatial edges.
	// By linearity this replaces the per-trial NetData bitset: the residual
	// parity the failure check needs is CutParity XOR the correction's own
	// cut parity, so a decode loop never materializes data-qubit masks.
	CutParity []bool
}

// TrialDefects returns trial i's sorted defect list (aliasing batch
// storage).
func (b *Batch) TrialDefects(i int) []int32 {
	return b.Defects[b.DefectOff[i]:b.DefectOff[i+1]]
}

// BatchSampler is the list form of PlaneSampler's walk: it samples full
// 64-lane plane groups and hands their lanes out in order, one trial per
// lane, as sorted defect lists plus cut parity. Seeded like a PlaneSampler
// and reseeded at the same points, it yields exactly the trials the
// Monte-Carlo kernel classifies, lane for lane — the batch width never
// matters, and a partial tail group of K lanes equals the first K lanes of
// a full group (PlaneSampler's lane-prefix invariance) — so sample-only
// replays and tests can rebuild any chunk of a run as per-trial lists.
type BatchSampler struct {
	ps *PlaneSampler
	// pg is the buffered group; its storage is sized on the first draw, so
	// constructing a sampler allocates no plane storage.
	pg PlaneGroup
	// lane is the next lane of pg to hand out; 64 means nothing buffered.
	lane int
	// The buffered group in list form: lane t's sorted defects are
	// defs[off[t]:off[t+1]].
	off  [65]int32
	defs []int32
}

// NewBatchSampler creates a batch sampler for graph g at physical error
// rate p, tracking net-error parity over the data qubits in cut (normally
// g.NorthCutQubits()). The seed words mirror NewPlaneSampler.
func NewBatchSampler(g *lattice.Graph, p float64, seed1, seed2 uint64, cut []int32) *BatchSampler {
	return &BatchSampler{ps: NewPlaneSampler(g, p, seed1, seed2, cut), lane: 64}
}

// Reseed rewinds the sampler onto a fresh deterministic stream without
// allocating, dropping any buffered lanes — the per-chunk seeding the
// engine's determinism contract needs.
func (s *BatchSampler) Reseed(seed1, seed2 uint64) {
	s.ps.Reseed(seed1, seed2)
	s.lane = 64
}

// SampleBatch fills b with the next k trials, reusing its storage.
func (s *BatchSampler) SampleBatch(b *Batch, k int) {
	b.K = k
	b.DefectOff = append(b.DefectOff[:0], 0)
	b.Defects = b.Defects[:0]
	if cap(b.CutParity) < k {
		b.CutParity = make([]bool, k)
	}
	b.CutParity = b.CutParity[:k]
	for t := 0; t < k; t++ {
		if s.lane == 64 {
			s.nextGroup()
		}
		b.Defects = append(b.Defects, s.defs[s.off[s.lane]:s.off[s.lane+1]]...)
		b.DefectOff = append(b.DefectOff, int32(len(b.Defects)))
		b.CutParity[t] = s.pg.CutParity>>uint(s.lane)&1 != 0
		s.lane++
	}
}

// nextGroup samples a full group and transposes it into per-lane lists:
// count each lane's defects, prefix-sum the offsets, then place every
// defect in ascending vertex order, which sorts each list.
func (s *BatchSampler) nextGroup() {
	s.ps.SampleGroup(&s.pg, 64)
	var pos [64]int32
	for wi, tw := range s.pg.Touched {
		for base := wi << 6; tw != 0; tw &= tw - 1 {
			for w := s.pg.Defects[base+bits.TrailingZeros64(tw)]; w != 0; w &= w - 1 {
				pos[bits.TrailingZeros64(w)]++
			}
		}
	}
	for t, n := range pos {
		s.off[t+1] = s.off[t] + n
		pos[t] = s.off[t]
	}
	if n := int(s.off[64]); cap(s.defs) < n {
		s.defs = make([]int32, n, 2*n)
	}
	s.defs = s.defs[:s.off[64]]
	for wi, tw := range s.pg.Touched {
		for base := wi << 6; tw != 0; tw &= tw - 1 {
			v := base + bits.TrailingZeros64(tw)
			for w := s.pg.Defects[v]; w != 0; w &= w - 1 {
				t := bits.TrailingZeros64(w)
				s.defs[pos[t]] = int32(v)
				pos[t]++
			}
		}
	}
	s.lane = 0
}
