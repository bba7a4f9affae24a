// Boundary-distance lookup tables for the closed-form certificates.
//
// The syndrome-space BFS above (New) proves min-weight corrections by
// first-visit order; the same level-order argument applied to the decoding
// graph itself gives per-vertex boundary distances: a breadth-first search
// seeded at the boundary edges of one side reaches vertex v at level k iff
// the cheapest fault chain connecting v to that side has weight k. Two such
// sweeps — one from the north boundary edges (the logical cut), one from
// every other boundary edge (south, and the temporal boundary on window
// graphs) — classify each vertex by which side its nearest boundary is on,
// which is all a closed-form weight-1 decode needs to know: a lone defect
// flips the logical observable iff its unique nearest boundary is north.
// Vertices equidistant from both sides are marked SideTie and the
// certificates punt them to the full decoder.
package lut

import (
	"sync"

	"afs/internal/lattice"
)

// Side classification of a vertex's nearest boundary.
const (
	// SideOther: the strictly nearest boundary is south or temporal, so a
	// min-weight boundary chain from here never crosses the north cut.
	SideOther uint8 = iota
	// SideNorth: the strictly nearest boundary is north; every min-weight
	// boundary chain from here crosses the north cut exactly once.
	SideNorth
	// SideTie: north and non-north boundaries are equidistant; min-weight
	// chains of both logical classes exist and closed-form rules must punt.
	SideTie
)

// Boundary holds per-vertex distance and side tables toward the nearest
// code boundary of a decoding graph. Build cost is two BFS sweeps
// (O(V+E)); storage is three int32s and a byte per vertex — negligible next
// to the graph itself, so instances are cached per graph (BoundaryFor).
type Boundary struct {
	G *lattice.Graph

	// DistNorth[v] / DistOther[v]: fault weight of the cheapest chain from
	// v to the north boundary / to any non-north boundary.
	DistNorth []int32
	DistOther []int32
	// Dist[v] = min(DistNorth[v], DistOther[v]); equals
	// lattice.BoundaryDistance(v) (asserted by tests).
	Dist []int32
	// Side[v] classifies the nearest boundary (SideNorth/SideOther/SideTie).
	Side []uint8
}

// BoundaryFor returns the cached Boundary tables for g, building them on
// first use. Safe for concurrent use.
func BoundaryFor(g *lattice.Graph) *Boundary {
	if b, ok := boundaryCache.Load(g); ok {
		return b.(*Boundary)
	}
	b, _ := boundaryCache.LoadOrStore(g, NewBoundary(g))
	return b.(*Boundary)
}

var boundaryCache sync.Map // *lattice.Graph → *Boundary

// NewBoundary builds the distance tables for g.
func NewBoundary(g *lattice.Graph) *Boundary {
	b := &Boundary{G: g, DistNorth: boundaryBFS(g, true), DistOther: boundaryBFS(g, false)}
	b.Dist = make([]int32, g.V)
	b.Side = make([]uint8, g.V)
	for v := 0; v < g.V; v++ {
		dn, do := b.DistNorth[v], b.DistOther[v]
		switch {
		case dn < do:
			b.Dist[v], b.Side[v] = dn, SideNorth
		case do < dn:
			b.Dist[v], b.Side[v] = do, SideOther
		default:
			b.Dist[v], b.Side[v] = dn, SideTie
		}
	}
	return b
}

// IsNorthEdge reports whether edge e is a north-boundary edge, i.e. a
// spatial edge on a vertical k=0 data qubit — exactly the edges of the
// logical cut (lattice.NorthCutQubits).
func IsNorthEdge(g *lattice.Graph, ed *lattice.Edge) bool {
	return ed.Kind == lattice.Spatial && ed.Qubit >= 0 && ed.Qubit < int32(g.Distance)
}

// boundaryBFS runs a multi-source BFS from the boundary edges of one side
// (north if wantNorth, everything else otherwise) and returns per-vertex
// distances. Level-order first visits make dist[v] the min fault weight of
// a chain from v to that side, mirroring the syndrome-space BFS min-weight
// argument in New.
func boundaryBFS(g *lattice.Graph, wantNorth bool) []int32 {
	dist := make([]int32, g.V)
	for i := range dist {
		dist[i] = -1
	}
	bv := g.Boundary()
	queue := make([]int32, 0, g.V)
	// Seed: the boundary-incident edges of the requested side.
	for _, e := range g.AdjacentEdges(bv) {
		ed := &g.Edges[e]
		if IsNorthEdge(g, ed) != wantNorth {
			continue
		}
		x := ed.U
		if g.IsBoundary(x) {
			x = ed.V
		}
		if dist[x] == -1 {
			dist[x] = 1
			queue = append(queue, x)
		}
	}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, e := range g.AdjacentEdges(x) {
			u := g.Other(e, x)
			if g.IsBoundary(u) || dist[u] != -1 {
				continue
			}
			dist[u] = dist[x] + 1
			queue = append(queue, u)
		}
	}
	return dist
}
