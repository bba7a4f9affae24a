package lut_test

import (
	"testing"

	"afs/internal/lattice"
	"afs/internal/lut"
)

func distGraphs() []*lattice.Graph {
	return []*lattice.Graph{
		lattice.New2D(3), lattice.New2D(5), lattice.New2D(7),
		lattice.New3D(3, 3), lattice.New3D(5, 5),
		lattice.New3DWindow(3, 3), lattice.New3DWindow(5, 5),
	}
}

// The BFS distances must agree with the lattice's closed-form boundary
// distances on every graph flavor.
func TestBoundaryDistMatchesLattice(t *testing.T) {
	for _, g := range distGraphs() {
		b := lut.NewBoundary(g)
		for v := int32(0); v < int32(g.V); v++ {
			if got, want := int(b.Dist[v]), g.BoundaryDistance(v); got != want {
				t.Fatalf("%v: Dist[%d] = %d, BoundaryDistance = %d", g, v, got, want)
			}
			if min := min32(b.DistNorth[v], b.DistOther[v]); min != b.Dist[v] {
				t.Fatalf("%v: Dist[%d] = %d != min(north %d, other %d)",
					g, v, b.Dist[v], b.DistNorth[v], b.DistOther[v])
			}
		}
	}
}

// On closed graphs the north and south distances are r+1 and d-1-r, which
// never tie for odd d; window graphs may tie against the temporal boundary.
func TestBoundarySides(t *testing.T) {
	for _, g := range distGraphs() {
		b := lut.NewBoundary(g)
		for v := int32(0); v < int32(g.V); v++ {
			r, _, _ := g.VertexCoords(v)
			if dn := int32(r + 1); b.DistNorth[v] != dn {
				t.Fatalf("%v: DistNorth[%d] = %d, want %d", g, v, b.DistNorth[v], dn)
			}
			if !g.TimeBoundary {
				if ds := int32(g.Distance - 1 - r); b.DistOther[v] != ds {
					t.Fatalf("%v: DistOther[%d] = %d, want %d", g, v, b.DistOther[v], ds)
				}
				if b.Side[v] == lut.SideTie {
					t.Fatalf("%v: unexpected tie at vertex %d on a closed graph", g, v)
				}
			}
			want := lut.SideTie
			switch {
			case b.DistNorth[v] < b.DistOther[v]:
				want = lut.SideNorth
			case b.DistOther[v] < b.DistNorth[v]:
				want = lut.SideOther
			}
			if b.Side[v] != want {
				t.Fatalf("%v: Side[%d] = %d, want %d", g, v, b.Side[v], want)
			}
		}
	}
}

func TestBoundaryForCached(t *testing.T) {
	g := lattice.New2D(3)
	if lut.BoundaryFor(g) != lut.BoundaryFor(g) {
		t.Fatal("BoundaryFor did not cache per graph")
	}
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
