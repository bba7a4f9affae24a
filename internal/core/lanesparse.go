package core

import (
	"math/bits"

	"afs/internal/lattice"
)

// ClassifySparse is the stream entry point: it classifies up to 64
// same-shape stream windows (one per lane) with the shared certify step
// (see LaneTriage) and, for every lane that certifies, rebuilds the
// window's correction: exactly the edge set a full Decode of the window
// returns (TestClassifySparseMatchesFullDecode). A certified lane is
// adjacent pairs, each emitting its connecting edge, and B = 1 singles,
// each emitting lattice.FirstBoundaryEdge; a tie-side single needs no
// parity here, so unlike Classify it certifies too.
//
// One pass over the compact defect list in ascending vertex order emits
// them: a pair at its smaller member through the id-increasing neighbor
// table (at most one hit per lane — degree <= 1), a single at its own
// position. Every edge is emitted regardless of the caller's commit
// depth; the stream's commit loop keeps the ones below it.
//
// planes/touched follow Classify's contract; laneMask confines the result
// and the emit rebuild to the live lanes. Returns the fast lane mask; DefV
// and DefW are left describing this call's defect list for ClearPlanes.
func (lt *LaneTriage) ClassifySparse(planes, touched []uint64, laneMask uint64, emits *[64][]int32) uint64 {
	fast := laneMask &^ lt.certify(planes, touched, laneMask, nil)
	if fast == 0 {
		return 0
	}
	for fw := fast; fw != 0; {
		lane := bits.TrailingZeros64(fw)
		fw &^= 1 << uint(lane)
		emits[lane] = emits[lane][:0]
	}
	ii := 0
	for di, v := range lt.DefV {
		w := lt.DefW[di] & fast
		var iso uint64
		if ii < len(lt.isoV) && lt.isoV[ii] == v {
			iso = lt.isoM[ii] & fast
			ii++
		}
		if w == 0 {
			continue
		}
		o := 3 * int(v)
		for k := 0; k < 3; k++ {
			e := lt.upEdge[o+k]
			if e < 0 {
				continue
			}
			for m := w & planes[lt.upNbr[o+k]]; m != 0; {
				lane := bits.TrailingZeros64(m)
				m &^= 1 << uint(lane)
				emits[lane] = append(emits[lane], e)
			}
		}
		if iso != 0 {
			e := lt.fb[v]
			for m := iso; m != 0; {
				lane := bits.TrailingZeros64(m)
				m &^= 1 << uint(lane)
				emits[lane] = append(emits[lane], e)
			}
		}
	}
	return fast
}

// LaneClusters appends to dst the clusters a full Decode of a certified
// lane records in Stats.Clusters, element for element, given the edges
// ClassifySparse emitted for the lane (TestClassifySparseMatchesFullDecode).
// The certificate fixes them: a pair merges over its edge in the first
// growth round (2 vertices, 1 growth step). A B = 1 single at v fills every
// incident edge in the second round and merges into the boundary; no other
// defect lies within distance 2 of v, so its cluster is v and v's real
// neighbours (2 growth steps). Every single merges in that round, in
// ascending edge order, and the boundary's tree list is last-in first-out,
// so Decode peels the singles first, in descending order of their boundary
// edge, then the pairs in ascending order of their smaller member, which
// is the emit order. The order matters: Eq. 3's exposed term reads the
// last cluster.
func LaneClusters(g *lattice.Graph, emits []int32, dst []ClusterStat) []ClusterStat {
	b := g.Boundary()
	for prev := int32(len(g.Edges)); ; {
		next := int32(-1)
		for _, e := range emits {
			if e < prev && e > next && g.Edges[e].V == b {
				next = e
			}
		}
		if next < 0 {
			break
		}
		prev = next
		v := g.Edges[next].U
		n := 1
		for _, e := range g.AdjacentEdges(v) {
			if g.Other(e, v) != b {
				n++
			}
		}
		dst = append(dst, ClusterStat{Vertices: n, GrowthSteps: 2, Defects: 1, TouchesBoundary: true})
	}
	for _, e := range emits {
		if g.Edges[e].V != b {
			dst = append(dst, ClusterStat{Vertices: 2, GrowthSteps: 1, Defects: 2})
		}
	}
	return dst
}

// GatherLists extracts the per-lane defect index lists for the lanes in
// gather from the most recent classification's compact defect list. Vertex
// order ascends, so every list arrives sorted — exactly the order the
// scalar decode paths expect. Lists for lanes outside gather are left
// untouched; gathered lanes' lists are truncated and refilled in place, so
// steady-state callers allocate nothing once the lists reach their
// high-water capacity. The Monte-Carlo kernel gathers its uncertified
// lanes this way; the stream needs no gather, since each stream already
// buffers its window as a sorted defect list.
func (lt *LaneTriage) GatherLists(gather uint64, lists *[64][]int32) {
	for gw := gather; gw != 0; {
		lane := bits.TrailingZeros64(gw)
		gw &^= 1 << uint(lane)
		lists[lane] = lists[lane][:0]
	}
	dw := lt.DefW
	for di, v := range lt.DefV {
		for lw := dw[di] & gather; lw != 0; {
			lane := bits.TrailingZeros64(lw)
			lw &^= 1 << uint(lane)
			lists[lane] = append(lists[lane], v)
		}
	}
}

// ClearPlanes zeroes the defect planes and touched bitmap populated by a
// scatter-only fill (every touched vertex has a nonzero plane word — true
// when callers only OR bits in, never toggle), using the most recent
// classification's compact defect list so the cost is O(defects) instead
// of O(V).
func (lt *LaneTriage) ClearPlanes(planes, touched []uint64) {
	for _, v := range lt.DefV {
		planes[v] = 0
		touched[v>>6] = 0
	}
}
