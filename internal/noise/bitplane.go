package noise

import (
	"math"
	"math/bits"
	"math/rand/v2"

	"afs/internal/lattice"
)

// logTab backs fastLog: bucket i covers mantissas [h, h+1/128) with
// h = 1 + i/128, storing ln(h) and 1/h.
var logTab [128]struct{ ln, inv float64 }

func init() {
	for i := range logTab {
		h := 1 + float64(i)/128
		logTab[i].ln = math.Log(h)
		logTab[i].inv = 1 / h
	}
}

// fastLog returns ln(u) for normal u in (0, 1) — every nonzero value the
// 53-bit uniform conversion can produce — with absolute error below 1e-10
// (test-enforced): split u = 2^e * f with f in [1, 2), reduce f against
// its 7-bit mantissa bucket via a reciprocal multiply, and finish with a
// 4-term ln(1+r) series on r < 1/128. About 2.5x cheaper than math.Log,
// which the geometric-skip walk calls once per fault; the error budget
// only perturbs which site a skip lands on (a sub-ulp effect on the
// quotient), never the per-site Bernoulli distribution.
func fastLog(u float64) float64 {
	b := math.Float64bits(u)
	e := int(b>>52) - 1023
	m := b & (1<<52 - 1)
	t := &logTab[m>>45]
	f := math.Float64frombits(m | 0x3FF0000000000000)
	r := f*t.inv - 1
	r2 := r * r
	return float64(e)*math.Ln2 + t.ln + (r - r2*0.5 + r2*r*(1.0/3) - r2*r2*0.25)
}

// PlaneGroup is a bit-plane block of up to 64 sampled trials — the
// transpose of the structure-of-arrays Batch: instead of per-trial index
// lists, every vertex owns one uint64 word whose bit t is "trial t has a
// defect here". Weight classification and parity bookkeeping then run as
// word-parallel bitwise ops across all lanes at once (see internal/swar
// and core.LaneTriage); only heavy-tail lanes are ever gathered back into
// index-list form. All storage is reused by the next SampleGroup call.
type PlaneGroup struct {
	// K is the number of live trial lanes (1..64); LaneMask has the low K
	// bits set. Dead lanes carry no bits anywhere in the group.
	K        int
	LaneMask uint64
	// Defects[v] bit t reports a defect at vertex v in lane t: the XOR of
	// the lane's sampled incident edges, exactly the parity the scalar
	// sampler's mark stamps compute one trial at a time.
	Defects []uint64
	// Touched is a bitmap over vertices: bit v is set iff any lane toggled
	// v while sampling (a superset of the vertices with defects — a lane
	// pair of faults can cancel). Scanning it in word order visits vertices
	// in increasing id order, which is what hands the heavy-tail gather its
	// sorted defect lists for free.
	Touched []uint64
	// CutParity bit t is the parity of lane t's net data error over the
	// sampler's logical cut — the bit-plane form of Batch.CutParity.
	CutParity uint64
}

// ensure sizes the group's storage for a graph with v vertices. Defects
// gets one extra slot at index v — the boundary sentinel, never written,
// always zero — so lane classifiers can pad fixed-width neighbor tables
// with index v and load through it unconditionally (see core.LaneTriage).
// Freshly exposed storage is zero; reused storage was zeroed by reset.
func (pg *PlaneGroup) ensure(v int) {
	if cap(pg.Defects) < v+1 {
		pg.Defects = make([]uint64, v+1)
		pg.Touched = make([]uint64, (v+63)/64)
	}
	pg.Defects = pg.Defects[:v+1]
	pg.Touched = pg.Touched[:(v+63)/64]
}

// reset zeroes exactly the vertices the previous group touched — O(faults),
// never O(V), mirroring the scalar sampler's epoch-stamp trick.
func (pg *PlaneGroup) reset() {
	for wi, tw := range pg.Touched {
		if tw == 0 {
			continue
		}
		base := wi << 6
		for tw != 0 {
			b := bits.TrailingZeros64(tw)
			tw &^= 1 << uint(b)
			pg.Defects[base+b] = 0
		}
		pg.Touched[wi] = 0
	}
	pg.CutParity = 0
}

// AppendLaneDefects appends lane t's defect vertices, in increasing vertex
// order (exactly as Sampler.Sample would report them), and returns the
// extended slice.
func (pg *PlaneGroup) AppendLaneDefects(lane int, out []int32) []int32 {
	bit := uint64(1) << uint(lane)
	for wi, tw := range pg.Touched {
		base := wi << 6
		for tw != 0 {
			b := bits.TrailingZeros64(tw)
			tw &^= 1 << uint(b)
			if pg.Defects[base+b]&bit != 0 {
				out = append(out, int32(base+b))
			}
		}
	}
	return out
}

// PlaneSampler draws phenomenological-noise trials 64 lanes at a time into
// PlaneGroup bit-planes.
//
// RNG draw-order contract. The sampler performs ONE geometric-skip walk per
// group over the edge-major bit space of 64*len(Edges) Bernoulli(p) sites:
// site index b covers edge b>>6, lane b&63, so consecutive sites of one
// edge are the 64 lanes and the walk visits edges in increasing index
// order. Each fault costs exactly one draw — u = Float64 from the PCG
// stream (the identical 53-bit conversion the scalar sampler uses) and
// skip = floor(fastLog(u) * (1/ln(1-p))) — plus one terminating draw per
// group, Sampler.Sample's per-draw arithmetic applied to a 64x larger
// index space, with two strength reductions that are part of this
// sampler's stream contract: the division becomes a reciprocal multiply
// and ln is the table-accelerated fastLog (absolute error < 1e-10, which
// can shift an individual skip by one site in the last ulp but leaves the
// per-site Bernoulli distribution untouched). The walk ALWAYS spans the full 64-lane space; for a partial group
// (K < 64) faults landing in dead lanes are discarded after the draw, so
// the stream position after a group is independent of K and the fault
// pattern of lanes 0..K-1 is independent of K (test-enforced).
//
// Draw-for-draw parity with the scalar sampler is deliberately abandoned —
// interleaving 64 trials into one walk reorders the stream by construction
// — in exchange for ~1 draw per fault across the whole group with no
// per-trial loop restart. Equivalence is instead enforced two ways:
// per-site the walk is exactly SparseBernoulliLogQ over the enlarged index
// space (each site independently faulted with probability p — the same
// distribution the scalar sampler draws from), and bitplane_test.go pins a
// seeded distribution-equivalence harness comparing fault rates, defect-
// weight classes, cut parity, and downstream logical error rates against
// the scalar sampler.
type PlaneSampler struct {
	G *lattice.Graph
	P float64

	pcg *rand.PCG
	// logq = ln(1-p); invLogq is its precomputed reciprocal, so the hot
	// loop's skip division becomes a multiply (same floor for every
	// non-negative quotient; the rounding of a*inv vs a/b can differ in
	// the last ulp, which only perturbs which site a fault lands on — the
	// per-site Bernoulli distribution is unchanged).
	logq    float64
	invLogq float64
	// ep is a compact per-edge endpoint table with boundary endpoints
	// pre-resolved to -1 (the walk touches 8 bytes per fault edge and
	// skips the IsBoundary test); cutEdge is the per-edge logical-cut
	// membership.
	ep      []edgeEP
	cutEdge []bool
	faults  uint64
	trials  uint64

	// FaultLog, when non-nil, receives every live-lane fault as (edge,
	// lane) in draw order — the hook the equivalence tests use to replay a
	// group through the scalar defect derivation. Production runs leave it
	// nil.
	FaultLog func(edge int32, lane int)
}

type edgeEP struct{ U, V int32 }

// NewPlaneSampler creates a bit-plane sampler for graph g at physical
// error rate p, tracking cut parity over the data qubits in cut (normally
// g.NorthCutQubits()). The seed words mirror NewSampler.
func NewPlaneSampler(g *lattice.Graph, p float64, seed1, seed2 uint64, cut []int32) *PlaneSampler {
	if p < 0 || p >= 1 {
		panic("noise: physical error rate must be in [0,1)")
	}
	inCut := make([]bool, g.NumDataQubits())
	for _, q := range cut {
		inCut[q] = true
	}
	cutEdge := make([]bool, len(g.Edges))
	ep := make([]edgeEP, len(g.Edges))
	for e := range g.Edges {
		ed := &g.Edges[e]
		cutEdge[e] = ed.Kind == lattice.Spatial && inCut[ed.Qubit]
		u, v := ed.U, ed.V
		if g.IsBoundary(u) {
			u = -1
		}
		if g.IsBoundary(v) {
			v = -1
		}
		ep[e] = edgeEP{u, v}
	}
	s := &PlaneSampler{
		G:       g,
		P:       p,
		pcg:     rand.NewPCG(seed1, seed2),
		logq:    math.Log1p(-p),
		ep:      ep,
		cutEdge: cutEdge,
	}
	if s.logq < 0 {
		s.invLogq = 1 / s.logq
	}
	return s
}

// Reseed rewinds the sampler onto a fresh deterministic stream without
// allocating (per-chunk seeding, as for the other samplers).
func (s *PlaneSampler) Reseed(seed1, seed2 uint64) {
	s.pcg.Seed(seed1, seed2)
}

// CutEdges exposes the per-edge cut-flip table (not to be modified).
func (s *PlaneSampler) CutEdges() []bool { return s.cutEdge }

// MeanFaults returns the empirical mean number of live-lane faults per
// trial sampled so far.
func (s *PlaneSampler) MeanFaults() float64 {
	if s.trials == 0 {
		return 0
	}
	return float64(s.faults) / float64(s.trials)
}

// SampleGroup fills pg with k freshly sampled trial lanes (1 <= k <= 64),
// reusing its storage.
func (s *PlaneSampler) SampleGroup(pg *PlaneGroup, k int) {
	if k < 1 || k > 64 {
		panic("noise: plane group width must be in [1,64]")
	}
	pg.ensure(s.G.V)
	pg.reset()
	pg.K = k
	live := ^uint64(0) >> uint(64-k)
	pg.LaneMask = live

	if s.logq < 0 {
		// One geometric-skip walk over the 64*E-site edge-major bit space
		// (see the draw-order contract above). The skip arithmetic is
		// Sampler.Sample's with the division replaced by a reciprocal
		// multiply and the floor by integer truncation (identical for the
		// non-negative quotients the walk produces).
		nSites := len(s.ep) << 6
		defects, touched, ep, cutEdge := pg.Defects, pg.Touched, s.ep, s.cutEdge
		var cutPar, faults uint64
		limit := float64(nSites)
		invLogq := s.invLogq
		i := -1
		for {
			ub := s.pcg.Uint64() << 11 >> 11
			if ub == 0 {
				break // skip of +inf
			}
			// fastLog(u) * invLogq with fastLog inlined by hand — the
			// function body exceeds the compiler's inlining budget and the
			// walk makes one call per fault. u = ub/2^53 is normal, so its
			// exponent/mantissa split below is exact; keep in lockstep with
			// fastLog, which the accuracy test pins.
			b := math.Float64bits(float64(ub) / (1 << 53))
			ex := int(b>>52) - 1023
			m := b & (1<<52 - 1)
			lt := &logTab[m>>45]
			f := math.Float64frombits(m | 0x3FF0000000000000)
			r := f*lt.inv - 1
			r2 := r * r
			skip := (float64(ex)*math.Ln2 + lt.ln + (r - r2*0.5 + r2*r*(1.0/3) - r2*r2*0.25)) * invLogq
			if skip >= limit { // also catches +inf
				break
			}
			i += int(skip) + 1
			if i >= nSites {
				break
			}
			lane := uint(i) & 63
			bit := uint64(1) << lane
			if bit&live == 0 {
				continue // dead lane of a partial group: draw consumed, fault discarded
			}
			edge := i >> 6
			e := ep[edge]
			if e.U >= 0 {
				defects[e.U] ^= bit
				touched[e.U>>6] |= 1 << (uint(e.U) & 63)
			}
			if e.V >= 0 {
				defects[e.V] ^= bit
				touched[e.V>>6] |= 1 << (uint(e.V) & 63)
			}
			if cutEdge[edge] {
				cutPar ^= bit
			}
			faults++
			if s.FaultLog != nil {
				s.FaultLog(int32(edge), int(lane))
			}
		}
		pg.CutParity = cutPar
		s.faults += faults
	}
	s.trials += uint64(k)
}
