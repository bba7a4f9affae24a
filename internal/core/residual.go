package core

import (
	"math/bits"

	"afs/internal/lut"
)

// Partial-residual decomposition: the scalar certificate for every weight.
//
// PeelResidual enforces the isolation rule of DESIGN.md ("Isolation
// certificate") on one sorted defect list. Weight <= 2 takes the closed
// forms (closedForm) whole or not at all. Heavier syndromes are taken
// apart into the rule's components — adjacent pairs and matchable quads
// (R = 0), interior duos (R = ceil(D/2)), strict-side boundary singles
// (R = B) — and everything else (oversize or unmatchable distance-1
// components, K₁,₃ stars, side ties) starts in the residual at R = B. A
// demotion pass then moves both groups of every cross pair with
// L1 <= R(i)+R(j)+1 to the residual; the certified rest fold their
// parities in directly, and a residual of weight <= 2 gets one more try at
// the closed forms (their radii stay within the B bound the pass already
// checked for residual members).
//
// # Demotion is a least fixpoint, so order is free
//
// Every certified radius is at most B, so demoting a group never shrinks
// a radius, and a violating pair keeps violating as more groups join the
// residual. Any procedure that demotes only violating pairs' groups and
// stops only when none is left therefore ends on the same set — the least
// residual closed under the rule — which lets the pass below visit pairs
// in whatever order is cheapest. residual_ref_test.go keeps the all-pairs
// sweep-until-clean as the oracle.
//
// # Cost: follow the interactions, not k^2
//
//   - Adjacency comes from the sorted order. A lattice neighbour's vertex
//     id differs by 1, d or d(d-1) = LayerVertices (ids are t·d(d-1) +
//     r·d + c), so defect i is compared only with the following defects
//     whose ids lie within LayerVertices of its own. This is why defects
//     must arrive sorted: on unsorted input adjacent defects can be missed.
//
//   - The all-pairs shape returns at once. With no adjacency conflict and
//     every defect in a distance-1 pair, nothing can be demoted (two pair
//     members in different groups sit at distance >= 2 > 0+0+1), so the
//     syndrome resolves with parity 0 and one peeled component per pair.
//
//   - Isolation is a worklist, not a sweep. Distances are computed on
//     demand. Only rows that can violate are scanned — every single, duo and
//     residual member once, and each member again when its group is
//     demoted (a uint32 pending mask: k <= maxTriageDefects = 32). A row
//     skips defects still pending (their own scan covers the pair), its own
//     group, and, for a residual row, other residual members. Pairs of
//     certified pair/quad members are never checked: distance 1 would have
//     put them in one component.
//
// Duo candidates are found among the leftover singles only, and quad
// matchability reads the four members' coordinates, so the pass keeps no
// distance matrix at all. residual_test.go checks peeled parity XOR
// residual decode against undecomposed decodes under every decoder.

// Peel states (multiScratch.st): how each defect's component left the
// decomposition. plSingle doubles as the initial state — a defect not yet
// claimed by a pairing class is a candidate single until demoted.
const (
	plSingle uint8 = iota // certified strict-side boundary single (R = B)
	plPair                // member of a certified pair/quad (R = 0)
	plDuo                 // member of a certified interior duo (R = ceil(D/2))
	plResid               // demoted to the residual decode set (R = B)
)

// PeelResidual certifies a syndrome of any weight (see the doc above): it
// XORs the certified components' closed-form cut parities into parity and
// returns the residual defect set the caller must still decode (empty when
// everything certified). peeled counts the components certified out of a
// syndrome of weight >= 3; the weight <= 2 base case either resolves the
// syndrome whole (peeled 0) or returns it unpeeled. The residual slice
// aliases either Triage-owned scratch or defects itself and is valid until
// the next PeelResidual call. defects must be sorted ascending, as produced
// by the samplers (adjacency is found through the sorted order); the
// residual preserves that order.
//
// An unpeeled syndrome — one beyond maxTriageDefects, or a weight <= 2 one
// no closed form covers — returns parity 0, the input as residual,
// peeled 0.
func (t *Triage) PeelResidual(defects []int32) (parity bool, residual []int32, peeled int) {
	k := len(defects)
	if k <= 2 {
		if p, ok := t.closedForm(defects); ok {
			return p, t.res[:0], 0
		}
		return false, defects, 0
	}
	if k > maxTriageDefects {
		return false, defects, 0
	}
	s := &t.ms
	r, c, tt := s.r[:k], s.c[:k], s.t[:k]
	rad, grp, deg, gm := s.rad[:k], s.grp[:k], s.deg[:k], s.gm[:k]
	bnd, st := s.bnd[:k], s.st[:k]
	for i, v := range defects {
		p := t.g.PackedCoords(v)
		r[i] = int32(p & 0xffff)
		c[i] = int32(p >> 16 & 0xffff)
		tt[i] = int32(p >> 32 & 0xffff)
		bnd[i] = int32(p >> 48)
		rad[i] = bnd[i]
		grp[i] = int8(i)
		gm[i] = 1 << i
		st[i] = plSingle
	}
	// Distance-1 pairs: only the following defects within one layer's ids
	// can be lattice neighbours (see the doc). A defect touched twice is an
	// adjacency conflict.
	win := int32(t.g.LayerVertices())
	var touched uint32
	conflict := false
	n1 := 0
	for i := 0; i < k-1; i++ {
		lim := defects[i] + win
		for j := i + 1; j < k && defects[j] <= lim; j++ {
			if s.l1(i, j) != 1 {
				continue
			}
			b := uint32(1)<<i | uint32(1)<<j
			conflict = conflict || touched&b != 0
			touched |= b
			s.adj1[n1] = [2]int8{int8(i), int8(j)}
			n1++
		}
	}
	if !conflict && 2*n1 == k {
		// Disjoint dominoes cover the syndrome: nothing can be demoted.
		t.res = t.res[:0]
		return false, t.res, n1
	}
	// Distance-1 components. Without adjacency conflicts the pairs are
	// disjoint dominoes; with conflicts, label propagation finds the
	// components and each certifies or demotes on its own. gm[g] holds
	// group g's member mask, indexed by the group id.
	if !conflict {
		for _, e := range s.adj1[:n1] {
			i, j := e[0], e[1]
			grp[j] = i
			gm[i] |= 1 << j
			rad[i], rad[j] = 0, 0
			st[i], st[j] = plPair, plPair
		}
	} else {
		for changed := true; changed; {
			changed = false
			for _, e := range s.adj1[:n1] {
				i, j := e[0], e[1]
				if grp[i] != grp[j] {
					m := min(grp[i], grp[j])
					grp[i], grp[j] = m, m
					changed = true
				}
			}
		}
		for i := range gm {
			gm[i] = 0
		}
		for i := 0; i < k; i++ {
			gm[grp[i]] |= 1 << i
		}
		for i := 0; i < k; i++ {
			m := gm[i]
			if m&(m-1) == 0 {
				continue // not a group id, or a leftover single: decided below
			}
			n := bits.OnesCount32(m)
			certified := n == 2 || (n == 4 && t.quadMatchable(k, i))
			for ; m != 0; m &= m - 1 {
				x := bits.TrailingZeros32(m)
				if certified {
					st[x], rad[x] = plPair, 0
				} else {
					st[x] = plResid // rad stays B
				}
			}
		}
	}
	var single, pairs uint32
	for i := 0; i < k; i++ {
		switch st[i] {
		case plSingle:
			single |= 1 << i
		case plPair:
			pairs |= 1 << i
		}
	}
	// Interior-duo pairing among the leftover singles: each single's
	// candidates are the other singles within the interior-merge band
	// 2 <= D < 2*min(B). A unique mutual candidate certifies the duo at
	// radius ceil(D/2); zero or multiple candidates leave the defect a
	// single — the ambiguity, if real, is caught by the isolation pass
	// below (a spurned candidate sits at D <= B(i)+B(j)+1 by construction,
	// so uncertifiable closeness always demotes). deg is the candidate
	// store: -1 none, -2 several, else the unique candidate.
	for m := single; m != 0; m &= m - 1 {
		deg[bits.TrailingZeros32(m)] = -1
	}
	for m := single; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		for m2 := m & (m - 1); m2 != 0; m2 &= m2 - 1 {
			j := bits.TrailingZeros32(m2)
			if s.l1(i, j) >= 2*min(bnd[i], bnd[j]) { // D >= 2 is automatic for singles
				continue
			}
			if deg[i] == -1 {
				deg[i] = int8(j)
			} else {
				deg[i] = -2
			}
			if deg[j] == -1 {
				deg[j] = int8(i)
			} else {
				deg[j] = -2
			}
		}
	}
	for m := single; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		j := int(deg[i])
		if j > i && deg[j] == int8(i) { // mutual uniqueness: see the doc
			grp[j] = int8(i)
			gm[i] |= 1 << j
			rd := (s.l1(i, j) + 1) / 2 // ceil(D/2)
			rad[i], rad[j] = rd, rd
			st[i], st[j] = plDuo, plDuo
			single &^= 1<<i | 1<<j
		}
	}
	// Remaining singles: strict side certifies (R = B, parity from the
	// side bit, folded after the fixpoint); ties demote.
	for m := single; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros32(m); t.bd.Side[defects[i]] == lut.SideTie {
			st[i] = plResid // rad is already B
		}
	}
	// Isolation demotion worklist (see the doc): scan each pending row
	// against the defects already scanned, demoting both groups of a pair
	// within the invariant slack. A demoted group's members turn pending
	// again with radius B; a residual row only visits live defects.
	all := ^uint32(0) >> (32 - k)
	live := all
	for i := 0; i < k; i++ {
		if st[i] == plResid {
			live &^= 1 << i
		}
	}
	demote := func(g int8) uint32 {
		m := gm[g]
		for x := m; x != 0; x &= x - 1 {
			y := bits.TrailingZeros32(x)
			st[y], rad[y] = plResid, bnd[y]
		}
		return m
	}
	for pending := all &^ pairs; pending != 0; {
		x := bits.TrailingZeros32(pending)
		pending &^= 1 << x
		cand := live &^ pending
		if st[x] != plResid {
			cand = all &^ pending &^ gm[grp[x]]
		}
		for cand != 0 {
			y := bits.TrailingZeros32(cand)
			cand &^= 1 << y
			if s.l1(x, y) > rad[x]+rad[y]+1 {
				continue
			}
			if st[y] != plResid {
				m := demote(grp[y])
				live &^= m
				pending |= m
				cand &^= m
			}
			if st[x] != plResid {
				m := demote(grp[x])
				live &^= m
				pending |= m
				break // x is pending again, to be rescanned at radius B
			}
		}
	}
	// Collect: certified parities XOR together; residual keeps input order
	// (defects arrive sorted, so the residual is sorted too).
	if live == 0 {
		return false, defects, 0
	}
	t.res = t.res[:0]
	for i := 0; i < k; i++ {
		if st[i] == plResid {
			t.res = append(t.res, defects[i])
			continue
		}
		if int(grp[i]) == i {
			peeled++
		}
		if st[i] == plSingle && t.bd.Side[defects[i]] == lut.SideNorth {
			parity = !parity
		}
	}
	// A weight <= 2 residual gets one more shot at the closed forms.
	if n := len(t.res); n > 0 && n <= 2 {
		if p2, ok := t.closedForm(t.res); ok {
			if p2 {
				parity = !parity
			}
			peeled++
			t.res = t.res[:0]
		}
	}
	return parity, t.res, peeled
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
