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
//   - Multi (weight >= 3, ClassifySyndrome): almost every heavier syndrome
//     at deployment error rates is a scatter of independent single-fault
//     signatures — adjacent defect pairs from interior faults, boundary
//     singles from boundary faults. The decomposition rule matches each
//     defect with a unique adjacent partner (pairs; parity 0, influence
//     radius 0 — a pair's clusters merge in round one having absorbed
//     nothing beyond the defects themselves; ambiguous adjacency falls to
//     the even-component rule of mergeComponents), then pairs unambiguous
//     distance-2 duos among the leftovers (the signature of two faults
//     sharing a vertex) when both members sit at fault distance >= 2 from
//     the boundary — the W2 interior-merge rule applies (D = 2 < 2B on
//     both sides), the clusters meet at growth round 2 having absorbed
//     radius-1 balls: parity 0, influence radius 1 — and classifies the
//     remaining defects as isolated W1 singles (radius B, parity from the
//     side bit), then
//     checks the sparse shortcut's isolation invariant in one pass: every
//     cross-group defect pair (i, j) must satisfy L1(i,j) > R(i)+R(j)+1,
//     so no edge can ever complete between two groups and each group
//     evolves exactly as it would alone (see sparse.go's soundness
//     argument; any partition satisfying the invariant is valid, so the
//     single conservative pass needs no fixpoint). Total parity is the XOR
//     over groups. Ambiguous adjacency (a defect with two adjacent
//     partners), side ties, isolation violations, or more than
//     maxTriageDefects defects punt the whole syndrome.
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

// maxTriageDefects bounds the multi decomposition's scratch space; heavier
// syndromes (far above the design-point mean) punt to the full decoder.
const maxTriageDefects = 32

// multiScratch is the fixed-size working set the multi-defect passes share.
// classifyMulti (with mergeComponents and quadMatchable) uses r, c, t, rad,
// grp, deg, cnt, d, adj1 and adj2. PeelResidual uses r, c, t, rad, bnd,
// grp, deg, st, gm and adj1; it keeps no distance matrix and reads no d.
type multiScratch struct {
	r, c, t [maxTriageDefects]int32
	rad     [maxTriageDefects]int32
	bnd     [maxTriageDefects]int32  // boundary distance B (PeelResidual)
	grp     [maxTriageDefects]int8   // group id (smallest member index)
	deg     [maxTriageDefects]int8   // adjacency degree, then duo candidate
	cnt     [maxTriageDefects]int8   // members per group id (classifyMulti)
	st      [maxTriageDefects]uint8  // peel state (PeelResidual)
	gm      [maxTriageDefects]uint32 // member mask per group id (PeelResidual)
	// d caches classifyMulti's pairwise L1 distances, upper triangle only
	// (d[i][j] for i < j), so its isolation pass reuses the pairing pass's
	// arithmetic.
	d [maxTriageDefects][maxTriageDefects]int32
	// Sparse pair lists filled by the pairwise pass so the merge and
	// duo-candidate passes touch only the pairs that matter instead of
	// re-sweeping the k x k matrix. A defect has at most 6 lattice
	// neighbours and 18 sites at L1 distance 2, which bounds the lists.
	adj1 [3 * maxTriageDefects][2]int8 // pairs at distance 1
	adj2 [9 * maxTriageDefects][2]int8 // pairs at distance 2
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
	// TriageMulti: weight >= 3 syndrome resolved by the pair/single
	// decomposition (ClassifySyndrome).
	TriageMulti
)

func (c TriageClass) String() string {
	switch c {
	case TriageW0:
		return "w0"
	case TriageW1:
		return "w1"
	case TriageW2:
		return "w2"
	case TriageMulti:
		return "multi"
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

// ClassifySyndrome is Classify extended to syndromes of any weight: weights
// <= 2 go through the exact closed forms, heavier syndromes through the
// pair/single decomposition (class TriageMulti). This is the entry point the
// fused Monte-Carlo kernel calls per trial.
func (t *Triage) ClassifySyndrome(defects []int32) (class TriageClass, parity bool, ok bool) {
	if len(defects) <= 2 {
		return t.Classify(defects)
	}
	parity, ok = t.classifyMulti(defects)
	if !ok {
		return TriageFull, false, false
	}
	return TriageMulti, parity, true
}

// classifyMulti implements the weight >= 3 decomposition documented above:
// match unique adjacent pairs (radius 0, parity 0), classify the leftovers
// as isolated W1 singles (radius B, parity from the side bit), and accept
// only if every cross-group defect pair satisfies the isolation invariant
// L1(i,j) > R(i)+R(j)+1. Anything ambiguous returns ok == false.
func (t *Triage) classifyMulti(defects []int32) (parity bool, ok bool) {
	k := len(defects)
	if k > maxTriageDefects {
		return false, false
	}
	s := &t.ms
	r, c, tt := s.r[:k], s.c[:k], s.t[:k]
	rad, grp, deg, cnt := s.rad[:k], s.grp[:k], s.deg[:k], s.cnt[:k]
	for i, v := range defects {
		p := t.g.PackedCoords(v)
		r[i] = int32(p & 0xffff)
		c[i] = int32(p >> 16 & 0xffff)
		tt[i] = int32(p >> 32 & 0xffff)
		rad[i] = int32(p >> 48) // boundary distance B: the isolated-W1 radius
		grp[i] = int8(i)
		deg[i] = 0
		cnt[i] = 1
	}
	// Pairwise distances (upper triangle, cached for the isolation pass),
	// distance-1 adjacency degrees, and the sparse d==1 / d==2 pair lists
	// the merge and duo passes iterate.
	conflict := false
	n1, n2 := 0, 0
	for i := 0; i < k; i++ {
		di := s.d[i][:k]
		ri, ci, ti := r[i], c[i], tt[i]
		for j := i + 1; j < k; j++ {
			d := abs32(ri-r[j]) + abs32(ci-c[j]) + abs32(ti-tt[j])
			di[j] = d
			if d > 2 {
				continue
			}
			if d == 1 {
				deg[i]++
				deg[j]++
				conflict = conflict || deg[i] > 1 || deg[j] > 1
				s.adj1[n1] = [2]int8{int8(i), int8(j)}
				n1++
			} else {
				s.adj2[n2] = [2]int8{int8(i), int8(j)}
				n2++
			}
		}
	}
	if !conflict {
		// Every adjacency is a mutually unique duo: pair them (the shared
		// edge beats any alternative — see the doc comment). Radius 0.
		// With all degrees <= 1 the d==1 pairs are disjoint dominoes.
		for a := 0; a < n1; a++ {
			i, j := s.adj1[a][0], s.adj1[a][1]
			grp[j] = i
			cnt[i], cnt[j] = 2, 0
			rad[i], rad[j] = 0, 0
		}
	} else if !t.mergeComponents(k, n1) {
		return false, false
	}
	// Distance-2 pairing among the leftover singles: a fault pair sharing a
	// vertex leaves its two defects at L1 distance 2. A single with exactly
	// one single distance-2 candidate pairs with it when both sit at fault
	// distance >= 2 from the boundary (the W2 interior-merge rule: D = 2 <
	// 2B on both sides, parity 0, influence radius 1); two candidates are
	// ambiguous, and a near-boundary duo (B == 1, where merge and boundary
	// pairing tie at cost 2) has no closed form — both punt. Note a unique
	// candidate is mutual: if i's unique candidate is j but j's is l != i,
	// then j sees both i and l and punts first. deg is dead after the
	// pairing phase and is reused as the candidate store.
	for i := 0; i < k; i++ {
		deg[i] = -1
	}
	for a := 0; a < n2; a++ {
		i, j := s.adj2[a][0], s.adj2[a][1]
		if cnt[i] != 1 || cnt[j] != 1 {
			continue
		}
		if deg[i] >= 0 || deg[j] >= 0 {
			return false, false // a second distance-2 candidate: ambiguous
		}
		deg[i], deg[j] = j, i
	}
	for i := 0; i < k; i++ {
		if cnt[i] != 1 {
			continue
		}
		j := int(deg[i])
		if j < i {
			continue
		}
		if rad[i] < 2 || rad[j] < 2 {
			return false, false
		}
		grp[j] = int8(i)
		cnt[i], cnt[j] = 2, 0
		rad[i], rad[j] = 1, 1
	}
	// Parity contributions of the remaining singles (their radius is
	// already B from the packed load).
	for i := 0; i < k; i++ {
		if cnt[i] != 1 {
			continue
		}
		side := t.bd.Side[defects[i]]
		if side == lut.SideTie {
			return false, false
		}
		if side == lut.SideNorth {
			parity = !parity
		}
	}
	// Isolation invariant across groups.
	for i := 0; i < k; i++ {
		di := s.d[i][:k]
		gi := grp[i]
		slack := rad[i] + 1
		for j := i + 1; j < k; j++ {
			if di[j] <= slack+rad[j] && grp[j] != gi {
				return false, false
			}
		}
	}
	return parity, true
}

// mergeComponents is classifyMulti's slow path for ambiguous distance-1
// adjacency (a defect with two neighbors — fault clusters; a few percent of
// syndromes at the design point). It merges distance-1 connected components
// by label propagation and accepts a component exactly when it must
// collapse into one even interior cluster in growth round one: size 2, or
// size 4 admitting a perfect matching in its distance-1 graph (the lattice
// is bipartite, so components are paths, stars, or even cycles — a star
// K_{1,3} has no perfect matching and punts, which is necessary: its
// cheapest resolutions mix interior and boundary chains at equal cost).
// Accepted components merge at round one having absorbed nothing beyond
// their defects (radius 0) and every minimal correction pairs them through
// interior edges (any two such pairings differ by interior cycles): parity
// 0. Odd or larger components punt the syndrome.
func (t *Triage) mergeComponents(k, n1 int) bool {
	s := &t.ms
	grp, rad, cnt := s.grp[:k], s.rad[:k], s.cnt[:k]
	for changed := true; changed; {
		changed = false
		for a := 0; a < n1; a++ {
			i, j := s.adj1[a][0], s.adj1[a][1]
			if grp[i] != grp[j] {
				m := grp[i]
				if grp[j] < m {
					m = grp[j]
				}
				grp[i], grp[j] = m, m
				changed = true
			}
		}
	}
	for i := 0; i < k; i++ {
		cnt[i] = 0
	}
	for i := 0; i < k; i++ {
		cnt[grp[i]]++
	}
	for i := 0; i < k; i++ {
		if int(grp[i]) != i {
			continue
		}
		switch cnt[i] {
		case 1, 2:
			// Single (keeps radius B) or plain pair.
		case 4:
			if !t.quadMatchable(k, i) {
				return false
			}
		default:
			return false
		}
	}
	for i := 0; i < k; i++ {
		if cnt[grp[i]] >= 2 {
			rad[i] = 0
		}
	}
	return true
}

// quadMatchable reports whether the 4-defect component with group id gid
// admits a perfect matching in its distance-1 graph.
func (t *Triage) quadMatchable(k, gid int) bool {
	s := &t.ms
	var m [4]int
	n := 0
	for i := 0; i < k; i++ {
		if int(s.grp[i]) == gid {
			m[n] = i
			n++
		}
	}
	return (s.l1(m[0], m[1]) == 1 && s.l1(m[2], m[3]) == 1) ||
		(s.l1(m[0], m[2]) == 1 && s.l1(m[1], m[3]) == 1) ||
		(s.l1(m[0], m[3]) == 1 && s.l1(m[1], m[2]) == 1)
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
