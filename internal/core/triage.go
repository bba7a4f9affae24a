package core

import (
	"afs/internal/lattice"
	"afs/internal/lut"
)

// Triage is the scalar certificate: PeelResidual (residual.go) resolves a
// sorted defect list to its logical cut parity — the only output a failure
// count consumes — or hands the decoder the part it cannot certify. It
// enforces the radius-bound isolation rule of DESIGN.md ("Isolation
// certificate") from defect coordinates and the BFS boundary tables of
// lut.Boundary; weight <= 2 syndromes take the closed forms below as the
// peel's base case. Triages are single-owner scratch.
type Triage struct {
	g   *lattice.Graph
	bd  *lut.Boundary
	res []int32 // residual defect set reused across PeelResidual calls
	ms  multiScratch
}

// maxTriageDefects bounds the peel's scratch space; heavier syndromes (far
// above the design-point mean) go to the full decoder unpeeled.
const maxTriageDefects = 32

// multiScratch is PeelResidual's fixed-size working set.
type multiScratch struct {
	r, c, t [maxTriageDefects]int32
	rad     [maxTriageDefects]int32
	bnd     [maxTriageDefects]int32  // boundary distance B
	grp     [maxTriageDefects]int8   // group id (smallest member index)
	deg     [maxTriageDefects]int8   // duo candidate
	st      [maxTriageDefects]uint8  // peel state
	gm      [maxTriageDefects]uint32 // member mask per group id
	// adj1 lists the pairs at distance 1. A defect has at most 6 lattice
	// neighbours, which bounds the list.
	adj1 [3 * maxTriageDefects][2]int8
}

// l1 returns the L1 (growth-metric) distance between defects i and j of
// the current syndrome.
func (s *multiScratch) l1(i, j int) int32 {
	return abs32(s.r[i]-s.r[j]) + abs32(s.c[i]-s.c[j]) + abs32(s.t[i]-s.t[j])
}

func abs32(x int32) int32 {
	// Branchless: the certificates call this in O(k^2) loops over defect
	// pairs where the sign is data-random.
	m := x >> 31
	return (x ^ m) - m
}

// NewTriage builds a scalar certificate for g, sharing the process-wide
// cached boundary tables.
func NewTriage(g *lattice.Graph) *Triage {
	return &Triage{g: g, bd: lut.BoundaryFor(g), res: make([]int32, 0, maxTriageDefects)}
}

// closedForm resolves a syndrome of weight <= 2 to its cut parity (ok ==
// false: no closed form applies). B is the fault distance to the nearest
// boundary and Side its lut side class; the rows are DESIGN.md's:
//
//   - weight 0: parity 0;
//   - weight 1 on a strict side: the boundary single, parity = north bit;
//   - weight 2 at L1 distance D < 2·min(B): the interior merge, parity 0;
//   - weight 2 at D > B(u)+B(v)+1, both strict: independent singles,
//     parity = XOR of the north bits.
//
// Side ties and the band between the two weight-2 rows punt.
func (t *Triage) closedForm(defects []int32) (parity, ok bool) {
	switch len(defects) {
	case 0:
		return false, true
	case 1:
		side := t.bd.Side[defects[0]]
		return side == lut.SideNorth, side != lut.SideTie
	case 2:
		u, v := defects[0], defects[1]
		pu, pv := t.g.PackedCoords(u), t.g.PackedCoords(v)
		d := abs32(int32(pu&0xffff)-int32(pv&0xffff)) +
			abs32(int32(pu>>16&0xffff)-int32(pv>>16&0xffff)) +
			abs32(int32(pu>>32&0xffff)-int32(pv>>32&0xffff))
		bu, bv := t.bd.Dist[u], t.bd.Dist[v]
		if d < 2*bu && d < 2*bv { // D == 1 included: 2B >= 2 > 1
			return false, true
		}
		if su, sv := t.bd.Side[u], t.bd.Side[v]; d > bu+bv+1 && su != lut.SideTie && sv != lut.SideTie {
			return (su == lut.SideNorth) != (sv == lut.SideNorth), true
		}
	}
	return false, false
}
