package core

import (
	"afs/internal/lattice"
	"afs/internal/lut"
)

// Weight-class triage (the batched shot pipeline's first stage).
//
// Where the sparse shortcut (sparse.go) reproduces the full algorithm's
// correction edge-for-edge, triage answers a weaker question that is all a
// logical-failure count needs: for syndromes of weight <= 2, what is the
// correction's parity over the north cut — does the decode flip the logical
// observable? Any two valid corrections for the same syndrome differ by a
// stabilizer (cycles and boundary-returning chains, even cut crossings)
// and/or a logical operator (odd crossings); triage is sound exactly when
// every correction a decoder could emit for the syndrome lies in one
// homology class, and it punts to the full decoder whenever both classes
// contain a minimal correction.
//
// The cut structure makes parity local: the north-cut edges
// (lattice.NorthCutQubits) are precisely the north boundary edges of the
// decoding graph, so a correction's cut parity is the number of north
// boundary edges it uses. A boundary-to-boundary chain uses exactly one
// boundary edge per attached endpoint, and an interior chain uses none.
//
// Weight classes, with B(v) the fault distance from v to the nearest
// boundary and Side(v) the side classification of lut.Boundary (punting on
// SideTie):
//
//   - W0 (no defects): the correction is empty; parity 0. Exact for every
//     decoder.
//
//   - W1 (defect v, Side(v) != SideTie): every minimal correction is a
//     weight-B(v) chain to the strictly nearest boundary — a chain to the
//     other side costs strictly more — so parity 1 iff Side(v) ==
//     SideNorth. Union-Find concurs dynamically: the cluster grows until
//     its first boundary contact at growth round 2B(v) (a vertex at fault
//     distance k joins the support in round 2k, so a boundary edge at
//     distance b completes in round 2b), at which point the only boundary
//     edges in the support sit on the winning side, and peeling routes v
//     through exactly one of them. On the closed (odd-d) graphs accuracy
//     runs decode, north and south distances r+1 and d-1-r can never tie,
//     so W1 never punts there; ties arise only from the temporal boundary
//     of window graphs.
//
//   - W2 (defects u, v at fault distance D = L1(u,v)):
//
//     interior: if D == 1 the correction is the connecting edge; if
//     2 <= D < 2*min(B(u), B(v)) the two clusters merge in growth round D
//     (their frontiers close the gap by one full edge per round), strictly
//     before any boundary edge can complete (round 2B >= D+1), and the
//     merged cluster is even and final — its support, and hence the peeled
//     u-v chain, contains no boundary edge: parity 0. Matching decoders
//     agree: D < 2Bu and D < 2Bv give D < Bu+Bv, so pairing u with v
//     strictly beats two boundary chains, and a weight-D u-v chain cannot
//     visit the boundary (that costs >= Bu+Bv > D).
//
//     independent: if D > B(u)+B(v)+1 and neither side ties, the two
//     clusters can never interact — a completing edge between their
//     absorbed balls (radii B(u), B(v)) would need D <= B(u)+B(v)+1 — so
//     each defect resolves as an isolated W1: parity is the XOR of the two
//     north bits. Matching decoders agree: boundary pairing at B(u)+B(v)
//     strictly beats the u-v chain at D >= B(u)+B(v)+2.
//
//     The band B(u)+B(v)-ish <= D <= B(u)+B(v)+1 between the two regimes —
//     where merge-vs-boundary is close enough for decoder-specific
//     tie-breaks to pick different homology classes — is conservatively
//     punted.
//
// Syndromes of weight >= 3 go to PeelResidual (residual.go), which
// certifies isolated components one by one and carries the soundness
// argument for heavier syndromes.
//
// The rules never inspect which decoder sits behind the triage layer, and
// the property tests in internal/montecarlo enforce trial-for-trial
// bit-identical failure outcomes against every untriaged decoder variant.
type Triage struct {
	g    *lattice.Graph
	bd   *lut.Boundary
	corr []int32
	res  []int32 // residual defect set reused across PeelResidual calls
	ms   multiScratch
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

// TriageClass labels how a syndrome was resolved; the Monte-Carlo kernel
// tallies these through internal/obs so -metrics shows fast-path hit rates.
type TriageClass uint8

const (
	// TriageFull: punted — the full decoder pipeline must run.
	TriageFull TriageClass = iota
	// TriageW0: empty syndrome, identity correction.
	TriageW0
	// TriageW1: single defect resolved to its nearest boundary.
	TriageW1
	// TriageW2: defect pair resolved by the interior or independent rule.
	TriageW2
)

func (c TriageClass) String() string {
	switch c {
	case TriageW0:
		return "w0"
	case TriageW1:
		return "w1"
	case TriageW2:
		return "w2"
	default:
		return "full"
	}
}

// NewTriage builds a triage layer for g, sharing the process-wide cached
// boundary tables.
func NewTriage(g *lattice.Graph) *Triage {
	return &Triage{g: g, bd: lut.BoundaryFor(g), res: make([]int32, 0, maxTriageDefects)}
}

// Classify resolves the syndrome's logical-cut parity without materializing
// a correction — the only output a failure count consumes. It returns the
// weight class, the correction's parity over the north cut, and whether the
// closed-form rules apply; ok == false (class TriageFull) means the caller
// must run a full decoder. defects must be sorted as produced by the
// samplers.
func (t *Triage) Classify(defects []int32) (class TriageClass, parity bool, ok bool) {
	switch len(defects) {
	case 0:
		return TriageW0, false, true
	case 1:
		v := defects[0]
		side := t.bd.Side[v]
		if side == lut.SideTie {
			return TriageFull, false, false
		}
		return TriageW1, side == lut.SideNorth, true
	case 2:
		u, v := defects[0], defects[1]
		pu, pv := t.g.PackedCoords(u), t.g.PackedCoords(v)
		d := abs32(int32(pu&0xffff)-int32(pv&0xffff)) +
			abs32(int32(pu>>16&0xffff)-int32(pv>>16&0xffff)) +
			abs32(int32(pu>>32&0xffff)-int32(pv>>32&0xffff))
		bu, bv := t.bd.Dist[u], t.bd.Dist[v]
		if d < 2*bu && d < 2*bv { // D == 1 included: 2B >= 2 > 1
			return TriageW2, false, true
		}
		if d > bu+bv+1 {
			su, sv := t.bd.Side[u], t.bd.Side[v]
			if su != lut.SideTie && sv != lut.SideTie {
				return TriageW2, (su == lut.SideNorth) != (sv == lut.SideNorth), true
			}
		}
		return TriageFull, false, false
	default:
		return TriageFull, false, false
	}
}

// Decode is Classify plus a materialized correction: a valid edge set whose
// syndrome is exactly defects and whose cut parity equals Classify's. The
// returned slice is reused by the next call. The Monte-Carlo kernel only
// calls Classify; Decode serves the parity-vs-validity tests and any caller
// that needs real edges.
func (t *Triage) Decode(defects []int32) (corr []int32, class TriageClass, parity bool, ok bool) {
	class, parity, ok = t.Classify(defects)
	if !ok {
		return nil, class, false, false
	}
	t.corr = t.corr[:0]
	switch class {
	case TriageW1:
		t.corr = t.bd.AppendChain(defects[0], t.corr)
	case TriageW2:
		u, v := defects[0], defects[1]
		if t.g.GraphDistance(u, v) > int(t.bd.Dist[u]+t.bd.Dist[v]+1) {
			t.corr = t.bd.AppendChain(u, t.corr)
			t.corr = t.bd.AppendChain(v, t.corr)
		} else {
			t.corr = t.appendGeodesic(u, v, t.corr)
		}
	}
	return t.corr, class, parity, true
}

// appendGeodesic appends an L1 geodesic from u to v (stepping layers, then
// rows, then columns; consecutive coordinates always share an edge on this
// lattice) and returns the extended slice.
func (t *Triage) appendGeodesic(u, v int32, out []int32) []int32 {
	g := t.g
	rv, cv, tv := g.VertexCoords(v)
	x := u
	for x != v {
		rx, cx, tx := g.VertexCoords(x)
		var y int32
		switch {
		case tx != tv:
			y = g.VertexID(rx, cx, tx+sign(tv-tx))
		case rx != rv:
			y = g.VertexID(rx+sign(rv-rx), cx, tx)
		default:
			y = g.VertexID(rx, cx+sign(cv-cx), tx)
		}
		out = append(out, g.EdgeBetween(x, y))
		x = y
	}
	return out
}

func sign(x int) int {
	if x < 0 {
		return -1
	}
	return 1
}
