package lattice

import (
	"testing"
	"testing/quick"
)

func TestGraphDimensions2D(t *testing.T) {
	for _, d := range []int{2, 3, 5, 7, 11, 25} {
		g := New2D(d)
		if got, want := g.V, d*(d-1); got != want {
			t.Errorf("d=%d: V = %d, want %d", d, got, want)
		}
		if got, want := len(g.Edges), d*d+(d-1)*(d-1); got != want {
			t.Errorf("d=%d: E = %d, want %d", d, got, want)
		}
		if got, want := g.NumDataQubits(), d*d+(d-1)*(d-1); got != want {
			t.Errorf("d=%d: data qubits = %d, want %d", d, got, want)
		}
		if got, want := g.NumAncillas(), d*(d-1); got != want {
			t.Errorf("d=%d: ancillas = %d, want %d", d, got, want)
		}
	}
}

func TestGraphDimensions3D(t *testing.T) {
	for _, d := range []int{3, 5, 11} {
		g := New3D(d, d)
		wantV := d * d * (d - 1)
		wantE := d*(d*d+(d-1)*(d-1)) + (d-1)*d*(d-1)
		if g.V != wantV {
			t.Errorf("d=%d: V = %d, want %d", d, g.V, wantV)
		}
		if len(g.Edges) != wantE {
			t.Errorf("d=%d: E = %d, want %d", d, len(g.Edges), wantE)
		}
	}
}

// TestWindowGraphMatchesStorageModel: the window graph is the one the
// hardware provisions memory for, so its dimensions must equal the storage
// model's V and E (paper Table I derivation).
func TestWindowGraphMatchesStorageModel(t *testing.T) {
	for _, d := range []int{3, 11, 25} {
		g := New3DWindow(d, d)
		wantV := d * d * (d - 1)
		wantE := d*(d*d+(d-1)*(d-1)) + d*d*(d-1)
		if g.V != wantV || len(g.Edges) != wantE {
			t.Errorf("d=%d window: (V,E) = (%d,%d), want (%d,%d)",
				d, g.V, len(g.Edges), wantV, wantE)
		}
	}
}

// TestHandshake: sum of degrees = 2E, counting the boundary vertex.
func TestHandshake(t *testing.T) {
	for _, g := range []*Graph{New2D(5), New3D(5, 5), New3DWindow(5, 5), New3D(4, 7)} {
		sum := 0
		for v := int32(0); v <= int32(g.V); v++ {
			sum += g.Degree(v)
		}
		if sum != 2*len(g.Edges) {
			t.Errorf("%v: degree sum %d != 2E = %d", g, sum, 2*len(g.Edges))
		}
	}
}

// TestInteriorDegrees: interior vertices of the 3-D graph have degree 6
// (4 spatial + 2 temporal), matching the cubic decoding lattice of Fig. 7.
func TestInteriorDegrees(t *testing.T) {
	g := New3D(7, 7)
	v := g.VertexID(3, 3, 3)
	if got := g.Degree(v); got != 6 {
		t.Errorf("interior 3-D vertex degree = %d, want 6", got)
	}
	g2 := New2D(7)
	if got := g2.Degree(g2.VertexID(3, 3, 0)); got != 4 {
		t.Errorf("interior 2-D vertex degree = %d, want 4", got)
	}
}

func TestVertexCoordsRoundTrip(t *testing.T) {
	g := New3D(7, 5)
	f := func(rRaw, cRaw, tRaw uint8) bool {
		r := int(rRaw) % (g.Distance - 1)
		c := int(cRaw) % g.Distance
		tt := int(tRaw) % g.Rounds
		v := g.VertexID(r, c, tt)
		gr, gc, gt := g.VertexCoords(v)
		return gr == r && gc == c && gt == tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeAccessors(t *testing.T) {
	g := New3D(5, 5)
	// Spatial edge lookup must return an edge with the right qubit and
	// round.
	for tt := 0; tt < g.Rounds; tt++ {
		for q := int32(0); q < int32(g.NumDataQubits()); q++ {
			e := g.Edges[g.SpatialEdge(q, tt)]
			if e.Kind != Spatial || e.Qubit != q || int(e.Round) != tt {
				t.Fatalf("SpatialEdge(%d,%d) = %+v", q, tt, e)
			}
		}
	}
	for tt := 0; tt < g.Rounds-1; tt++ {
		e := g.Edges[g.TemporalEdge(2, 3, tt)]
		if e.Kind != Temporal || e.Qubit != -1 || int(e.Round) != tt {
			t.Fatalf("TemporalEdge(2,3,%d) = %+v", tt, e)
		}
		r1, c1, t1 := g.VertexCoords(e.U)
		r2, c2, t2 := g.VertexCoords(e.V)
		if r1 != 2 || c1 != 3 || t1 != tt || r2 != 2 || c2 != 3 || t2 != tt+1 {
			t.Fatalf("temporal edge endpoints wrong: %+v", e)
		}
	}
}

func TestWindowTemporalBoundary(t *testing.T) {
	g := New3DWindow(5, 5)
	e := g.Edges[g.TemporalEdge(1, 2, g.Rounds-1)]
	if e.Kind != Temporal || !g.IsBoundary(e.V) {
		t.Fatalf("final-layer temporal edge should hit the boundary: %+v", e)
	}
	// The closed-cycle graph must reject that index.
	defer func() {
		if recover() == nil {
			t.Fatal("closed-cycle TemporalEdge(_,_,rounds-1) did not panic")
		}
	}()
	New3D(5, 5).TemporalEdge(1, 2, 4)
}

// TestBoundaryEdgesPerLayer: each layer has exactly 2d spatial boundary
// edges (north and south ends of each column).
func TestBoundaryEdgesPerLayer(t *testing.T) {
	d := 7
	g := New3D(d, d)
	counts := make(map[int16]int)
	for _, e := range g.Edges {
		if e.Kind == Spatial && g.IsBoundary(e.V) {
			counts[e.Round]++
		}
	}
	for tt := 0; tt < d; tt++ {
		if counts[int16(tt)] != 2*d {
			t.Errorf("layer %d has %d boundary edges, want %d", tt, counts[int16(tt)], 2*d)
		}
	}
}

// TestGraphDistanceIsL1 validates the closed-form metric against BFS.
func TestGraphDistanceIsL1(t *testing.T) {
	g := New3D(4, 4)
	// BFS from a few sources over real vertices only.
	for _, src := range []int32{0, g.VertexID(1, 2, 1), g.VertexID(2, 3, 3)} {
		dist := bfs(g, src)
		for v := int32(0); v < int32(g.V); v++ {
			if dist[v] != g.GraphDistance(src, v) {
				t.Fatalf("distance(%d,%d): bfs %d, L1 %d", src, v, dist[v], g.GraphDistance(src, v))
			}
		}
	}
}

// TestBoundaryDistanceMatchesBFS validates the closed-form boundary
// distance.
func TestBoundaryDistanceMatchesBFS(t *testing.T) {
	for _, g := range []*Graph{New2D(5), New3D(4, 4), New3DWindow(4, 4)} {
		distB := bfsFromBoundary(g)
		for v := int32(0); v < int32(g.V); v++ {
			if distB[v] != g.BoundaryDistance(v) {
				r, c, tt := g.VertexCoords(v)
				t.Fatalf("%v: boundary distance of (%d,%d,%d): bfs %d, formula %d",
					g, r, c, tt, distB[v], g.BoundaryDistance(v))
			}
		}
	}
}

func bfs(g *Graph, src int32) []int {
	dist := make([]int, g.V+1)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.AdjacentEdges(v) {
			u := g.Other(e, v)
			if g.IsBoundary(u) || dist[u] >= 0 {
				continue
			}
			dist[u] = dist[v] + 1
			queue = append(queue, u)
		}
	}
	return dist
}

func bfsFromBoundary(g *Graph) []int {
	dist := make([]int, g.V+1)
	for i := range dist {
		dist[i] = -1
	}
	var queue []int32
	b := g.Boundary()
	for _, e := range g.AdjacentEdges(b) {
		u := g.Other(e, b)
		if dist[u] < 0 {
			dist[u] = 1
			queue = append(queue, u)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.AdjacentEdges(v) {
			u := g.Other(e, v)
			if g.IsBoundary(u) || dist[u] >= 0 {
				continue
			}
			dist[u] = dist[v] + 1
			queue = append(queue, u)
		}
	}
	return dist
}

func TestNorthCutQubits(t *testing.T) {
	g := New2D(5)
	cut := g.NorthCutQubits()
	if len(cut) != 5 {
		t.Fatalf("cut size %d, want 5", len(cut))
	}
	// Every cut qubit's edge must touch the boundary and row 0.
	for _, q := range cut {
		e := g.Edges[g.SpatialEdge(q, 0)]
		if !g.IsBoundary(e.V) && !g.IsBoundary(e.U) {
			t.Errorf("cut qubit %d edge does not touch boundary", q)
		}
	}
}

func TestInvalidConstructions(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("New2D(1)", func() { New2D(1) })
	mustPanic("New3D(3,0)", func() { New3D(3, 0) })
	mustPanic("New3DWindow(3,1)", func() { New3DWindow(3, 1) })
	mustPanic("2D TemporalEdge", func() { New2D(3).TemporalEdge(0, 0, 0) })
}

func TestQubitIndexingDisjoint(t *testing.T) {
	g := New2D(7)
	seen := make(map[int32]bool)
	d := g.Distance
	for k := 0; k < d; k++ {
		for c := 0; c < d; c++ {
			q := g.VerticalQubit(k, c)
			if seen[q] {
				t.Fatalf("duplicate qubit id %d", q)
			}
			seen[q] = true
		}
	}
	for r := 0; r < d-1; r++ {
		for h := 0; h < d-1; h++ {
			q := g.HorizontalQubit(r, h)
			if seen[q] {
				t.Fatalf("duplicate qubit id %d", q)
			}
			seen[q] = true
		}
	}
	if len(seen) != g.NumDataQubits() {
		t.Fatalf("indexed %d qubits, want %d", len(seen), g.NumDataQubits())
	}
}

func TestAncillaIndexAndLayer(t *testing.T) {
	for _, g := range []*Graph{New2D(5), New3D(4, 7), New3DWindow(3, 3)} {
		for v := int32(0); v < int32(g.V); v++ {
			r, c, _ := g.VertexCoords(v)
			if got := g.AncillaIndex(v); got != int32(r*g.Distance+c) {
				t.Fatalf("%v: AncillaIndex(%d) = %d, want %d", g, v, got, r*g.Distance+c)
			}
		}
	}
}

func TestEdgeBetween(t *testing.T) {
	for _, g := range []*Graph{New2D(4), New3D(3, 4), New3DWindow(4, 4)} {
		// Every real vertex pair at L1 distance 1 shares exactly one edge,
		// and EdgeBetween finds it; all other pairs have none.
		for u := int32(0); u < int32(g.V); u++ {
			for v := int32(0); v < int32(g.V); v++ {
				e := g.EdgeBetween(u, v)
				if u == v {
					if e != -1 {
						t.Fatalf("%v: self-edge %d at vertex %d", g, e, u)
					}
					continue
				}
				if g.GraphDistance(u, v) == 1 {
					if e == -1 {
						t.Fatalf("%v: adjacent vertices %d,%d have no edge", g, u, v)
					}
					if g.Other(e, u) != v {
						t.Fatalf("%v: EdgeBetween(%d,%d) = %d does not connect them", g, u, v, e)
					}
				} else if e != -1 {
					t.Fatalf("%v: non-adjacent vertices %d,%d got edge %d", g, u, v, e)
				}
			}
		}
	}
}

func TestFirstBoundaryEdge(t *testing.T) {
	for _, g := range []*Graph{New2D(4), New3D(3, 4), New3DWindow(4, 4)} {
		b := g.Boundary()
		for v := int32(0); v < int32(g.V); v++ {
			e := g.FirstBoundaryEdge(v)
			if (g.BoundaryDistance(v) == 1) != (e != -1) {
				t.Fatalf("%v: vertex %d: BoundaryDistance %d but FirstBoundaryEdge %d",
					g, v, g.BoundaryDistance(v), e)
			}
			if e == -1 {
				continue
			}
			if g.Other(e, v) != b {
				t.Fatalf("%v: FirstBoundaryEdge(%d) = %d does not reach the boundary", g, v, e)
			}
			// Lowest index: no earlier adjacent edge reaches the boundary.
			for _, e2 := range g.AdjacentEdges(v) {
				if e2 >= e {
					break
				}
				if g.Other(e2, v) == b {
					t.Fatalf("%v: vertex %d has earlier boundary edge %d < %d", g, v, e2, e)
				}
			}
		}
	}
}
