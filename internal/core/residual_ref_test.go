package core

import "afs/internal/lut"

// The original implementation of PeelResidual, kept as the oracle for the
// worklist version: it sweeps every pair of defects until a demotion sweep
// comes back clean. Both reach the same least fixpoint (see residual.go), so
// TestPeelResidualMatchesReference and FuzzPeelResidual require equal
// (parity, residual, peeled) on every sorted input, and
// BenchmarkPeelResidual runs the two side by side.

// PeelResidualRef exposes the oracle to the external test package.
var PeelResidualRef = (*Triage).peelResidualRef

// peelResidualRef decomposes a syndrome: it certifies the components whose
// isolation holds regardless of the ambiguous remainder, XORs their
// closed-form cut parities into parity, and
// returns the residual defect set the caller must still decode (empty when
// everything certified). peeled counts the certified components. The
// residual slice aliases either kernel-owned scratch or defects itself and
// is valid until the next PeelResidual call. defects must be sorted as
// produced by the samplers; the residual preserves that order.
//
// Weight <= 2 takes the same closed-form base case as PeelResidual.
// Syndromes beyond maxTriageDefects, or weight <= 2 ones no closed form
// covers, return unpeeled: parity 0, the input as residual, peeled 0.
func (t *Triage) peelResidualRef(defects []int32) (parity bool, residual []int32, peeled int) {
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
	var members [maxTriageDefects]int8
	rad, grp, deg, cnt := s.rad[:k], s.grp[:k], s.deg[:k], members[:k]
	bnd, st := s.bnd[:k], s.st[:k]
	for i, v := range defects {
		p := t.g.PackedCoords(v)
		r[i] = int32(p & 0xffff)
		c[i] = int32(p >> 16 & 0xffff)
		tt[i] = int32(p >> 32 & 0xffff)
		bnd[i] = int32(p >> 48)
		rad[i] = bnd[i]
		grp[i] = int8(i)
		deg[i] = 0
		cnt[i] = 1
		st[i] = plSingle
	}
	// Distance-1 adjacency degrees and the d == 1 pair list.
	conflict := false
	n1 := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if s.l1(i, j) == 1 {
				deg[i]++
				deg[j]++
				conflict = conflict || deg[i] > 1 || deg[j] > 1
				s.adj1[n1] = [2]int8{int8(i), int8(j)}
				n1++
			}
		}
	}
	// Distance-1 components. Without adjacency conflicts the pairs are
	// disjoint dominoes; with conflicts, label propagation finds the
	// components and each certifies or demotes on its own.
	if !conflict {
		for a := 0; a < n1; a++ {
			i, j := s.adj1[a][0], s.adj1[a][1]
			grp[j] = i
			cnt[i], cnt[j] = 2, 0
			rad[i], rad[j] = 0, 0
			st[i], st[j] = plPair, plPair
		}
	} else {
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
			gi := int(grp[i])
			if gi != i {
				continue
			}
			certified := cnt[i] == 2 || (cnt[i] == 4 && t.quadMatchable(k, i))
			if cnt[i] == 1 {
				continue // leftover single: decided below
			}
			for m := 0; m < k; m++ {
				if int(grp[m]) != gi {
					continue
				}
				if certified {
					st[m], rad[m] = plPair, 0
				} else {
					st[m] = plResid // rad stays B
				}
			}
		}
	}
	// Interior-duo pairing among the leftover singles: each single's
	// candidates are the other singles within the interior-merge band
	// 2 <= D < 2*min(B). A unique mutual candidate certifies the duo at
	// radius ceil(D/2); zero or multiple candidates leave the defect a
	// single —
	// the ambiguity, if real, is caught by the isolation fixpoint below
	// (a spurned candidate sits at D <= B(i)+B(j)+1 by construction, so
	// uncertifiable closeness always demotes). deg is dead after the
	// pairing pass and is reused as the candidate store.
	for i := 0; i < k; i++ {
		deg[i] = -1
	}
	for i := 0; i < k; i++ {
		if cnt[i] != 1 || st[i] != plSingle {
			continue
		}
		for j := i + 1; j < k; j++ {
			if cnt[j] != 1 || st[j] != plSingle {
				continue
			}
			mn := bnd[i]
			if bnd[j] < mn {
				mn = bnd[j]
			}
			if s.l1(i, j) < 2*mn { // D >= 2 is automatic for singles
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
	}
	for i := 0; i < k; i++ {
		if cnt[i] != 1 || st[i] != plSingle {
			continue
		}
		j := int(deg[i])
		if j > i && deg[j] == int8(i) { // mutual uniqueness: see the doc
			grp[j] = int8(i)
			cnt[i], cnt[j] = 2, 0
			rd := (s.l1(i, j) + 1) / 2 // ceil(D/2)
			rad[i], rad[j] = rd, rd
			st[i], st[j] = plDuo, plDuo
		}
	}
	// Remaining singles: strict side certifies (R = B, parity from the
	// side bit, folded after the fixpoint); ties demote.
	for i := 0; i < k; i++ {
		if cnt[i] == 1 && st[i] == plSingle && t.bd.Side[defects[i]] == lut.SideTie {
			st[i] = plResid // rad is already B
		}
	}
	// Isolation demotion fixpoint: a cross-group pair within the invariant
	// slack demotes both groups (residual members keep radius B; certified
	// members revert to it). Monotone — groups only ever enter the
	// residual — so the sweep repeats until clean.
	for changed := true; changed; {
		changed = false
		for i := 0; i < k; i++ {
			slack := rad[i] + 1
			for j := i + 1; j < k; j++ {
				if grp[j] == grp[i] || (st[i] == plResid && st[j] == plResid) {
					continue
				}
				if s.l1(i, j) > slack+rad[j] {
					continue
				}
				for _, x := range [2]int{i, j} {
					if st[x] == plResid {
						continue
					}
					gx := grp[x]
					for m := 0; m < k; m++ {
						if grp[m] == gx {
							st[m] = plResid
							rad[m] = bnd[m]
						}
					}
					changed = true
				}
				slack = rad[i] + 1 // i's radius may have just grown
			}
		}
	}
	// Collect: certified parities XOR together; residual keeps input order
	// (defects arrive sorted, so the residual is sorted too).
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
	if len(t.res) == k {
		return false, defects, 0
	}
	// A weight <= 2 residual gets one more shot at a closed form: the W1/W2
	// rules' radii never exceed the B-per-member bound the fixpoint already
	// validated for the residual, so their parity folds in soundly.
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
