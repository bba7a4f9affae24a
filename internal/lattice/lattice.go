// Package lattice models the unrotated distance-d surface code on the
// (2d-1)x(2d-1) grid of alternating data and ancilla qubits (paper Fig. 2)
// and builds the decoding graphs the AFS decoder operates on:
//
//   - the 2-dimensional graph used under perfect syndrome measurements
//     (one detector layer), and
//   - the 3-dimensional graph used to tolerate measurement errors, in which
//     d rounds of syndrome measurement are decoded together (paper Fig. 7).
//
// Geometry. Data qubits sit at grid positions (i, j) with i+j even; Z-type
// ancillas (which detect X errors) at (odd i, even j) form a (d-1) x d
// grid; X-type ancillas at (even i, odd j) form a d x (d-1) grid. Because
// X and Z errors are corrected independently and the two graphs are
// transposes of each other, the package exposes the X-error graph and the
// simulation runs it for both error types.
//
// In the decoding graph, ancillas are vertices and data qubits are edges
// (the standard representation in QEC, paper Fig. 5). Vertical edges in a
// column terminate on the north and south code boundaries, represented by a
// single virtual boundary vertex. In the 3-dimensional graph a vertex
// exists per ancilla per detector layer, and temporal edges between
// consecutive layers represent measurement errors.
package lattice

import "fmt"

// EdgeKind distinguishes data-qubit (spatial) edges from measurement-error
// (temporal) edges in the decoding graph.
type EdgeKind uint8

const (
	// Spatial edges correspond to a potential X error on a data qubit
	// (horizontal red edges in paper Fig. 7b).
	Spatial EdgeKind = iota
	// Temporal edges correspond to the flip of a measurement outcome
	// (vertical red edges in paper Fig. 7b).
	Temporal
)

func (k EdgeKind) String() string {
	switch k {
	case Spatial:
		return "spatial"
	case Temporal:
		return "temporal"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Edge is one edge of the decoding graph. V may be the virtual boundary
// vertex (Graph.Boundary). Qubit is the data-qubit index for spatial edges
// and -1 for temporal edges. Round is the detector layer the edge belongs
// to (for temporal edges, the earlier of the two layers it connects).
type Edge struct {
	U, V  int32
	Kind  EdgeKind
	Qubit int32
	Round int16
}

// Graph is a surface-code decoding graph for one error type.
type Graph struct {
	// Distance is the code distance d.
	Distance int
	// Rounds is the number of detector layers (1 for the 2-D graph, d for
	// the full 3-D logical-cycle graph).
	Rounds int
	// V is the number of real (non-boundary) vertices: d*(d-1)*Rounds.
	V int
	// TimeBoundary reports whether the final layer carries temporal
	// boundary edges (continuous-window decoding, see New3DWindow).
	TimeBoundary bool
	// Edges lists every edge; spatial edges of layer t precede the temporal
	// edges leaving layer t.
	Edges []Edge

	adjStart []int32 // CSR offsets, length V+2 (includes boundary vertex)
	adjList  []int32 // edge indices

	// Per-vertex coordinate and boundary-distance table, filled at build
	// time so the hot decode paths read one word instead of dividing: vertex
	// v's row, column, layer, and boundary distance packed into 16-bit
	// fields of vpack[v] (see PackedCoords). 16 bits bound d and rounds at
	// 65535, far past any simulable code.
	vpack []uint64
}

// LayerVertices returns the number of ancilla vertices per detector layer,
// d*(d-1).
func (g *Graph) LayerVertices() int { return g.Distance * (g.Distance - 1) }

// Boundary returns the index of the virtual boundary vertex (== V).
func (g *Graph) Boundary() int32 { return int32(g.V) }

// IsBoundary reports whether v is the virtual boundary vertex.
func (g *Graph) IsBoundary(v int32) bool { return int(v) == g.V }

// NumDataQubits returns the number of data qubits in the code,
// d^2 + (d-1)^2.
func (g *Graph) NumDataQubits() int {
	d := g.Distance
	return d*d + (d-1)*(d-1)
}

// NumAncillas returns the number of ancilla qubits per error type per
// round, d*(d-1).
func (g *Graph) NumAncillas() int { return g.Distance * (g.Distance - 1) }

// VertexID returns the vertex index of the ancilla at row r (0..d-2),
// column c (0..d-1) in detector layer t.
func (g *Graph) VertexID(r, c, t int) int32 {
	d := g.Distance
	return int32(t*d*(d-1) + r*d + c)
}

// VertexCoords returns the (row, column, layer) of vertex v.
func (g *Graph) VertexCoords(v int32) (r, c, t int) {
	p := g.vpack[v]
	return int(p & 0xffff), int((p >> 16) & 0xffff), int((p >> 32) & 0xffff)
}

// PackedCoords returns vertex v's row, column, layer, and boundary distance
// packed into one word: row in bits 0-15, column in 16-31, layer in 32-47,
// boundary distance in 48-63. The sparse decode path unpacks all four from
// a single load.
func (g *Graph) PackedCoords(v int32) uint64 { return g.vpack[v] }

// VerticalQubit returns the data-qubit index of the vertical data qubit in
// column c at vertical position k (0..d-1). k=0 touches the north boundary
// and k=d-1 the south boundary.
func (g *Graph) VerticalQubit(k, c int) int32 { return int32(k*g.Distance + c) }

// HorizontalQubit returns the data-qubit index of the horizontal data qubit
// in ancilla row r (0..d-2) between columns h and h+1 (h in 0..d-2).
func (g *Graph) HorizontalQubit(r, h int) int32 {
	d := g.Distance
	return int32(d*d + r*(d-1) + h)
}

// spatialEdgesPerLayer returns d^2 + (d-1)^2.
func (g *Graph) spatialEdgesPerLayer() int { return g.NumDataQubits() }

// SpatialEdge returns the edge index of data qubit q's edge in detector
// layer t.
func (g *Graph) SpatialEdge(q int32, t int) int32 {
	return int32(t*g.layerStride() + int(q))
}

// layerStride is the number of edges emitted per layer in construction
// order: spatial edges then temporal edges leaving the layer.
func (g *Graph) layerStride() int {
	s := g.spatialEdgesPerLayer()
	if g.Rounds > 1 {
		s += g.LayerVertices()
	}
	return s
}

// TemporalEdge returns the edge index of the measurement-error edge for
// ancilla (r, c) connecting layers t and t+1 (t in 0..Rounds-2); on a
// window graph, t = Rounds-1 addresses the temporal boundary edge. It
// panics for a 2-D graph.
func (g *Graph) TemporalEdge(r, c, t int) int32 {
	if g.Rounds < 2 {
		panic("lattice: no temporal edges in a 2-D graph")
	}
	maxT := g.Rounds - 1
	if g.TimeBoundary {
		maxT = g.Rounds
	}
	if t < 0 || t >= maxT {
		panic(fmt.Sprintf("lattice: temporal edge layer %d out of range [0,%d)", t, maxT))
	}
	d := g.Distance
	return int32(t*g.layerStride() + g.spatialEdgesPerLayer() + r*d + c)
}

// AdjacentEdges returns the indices of the edges incident to vertex v
// (which may be the boundary vertex), in increasing edge-index order. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) AdjacentEdges(v int32) []int32 {
	return g.adjList[g.adjStart[v]:g.adjStart[v+1]]
}

// AncillaIndex returns the per-layer ancilla index (row*d + column) of real
// vertex v — the coordinate streaming decoders exchange with the syndrome
// source, independent of which detector layer v sits in.
func (g *Graph) AncillaIndex(v int32) int32 {
	return v % int32(g.LayerVertices())
}

// EdgeBetween returns the lowest index of an edge connecting real vertices
// u and v, or -1 if they are not adjacent. On this lattice two real
// vertices at L1 (graph) distance 1 always share exactly one edge.
func (g *Graph) EdgeBetween(u, v int32) int32 {
	for _, e := range g.AdjacentEdges(u) {
		if g.Other(e, u) == v {
			return e
		}
	}
	return -1
}

// FirstBoundaryEdge returns the lowest index of an edge connecting real
// vertex v to the virtual boundary vertex, or -1 if v has no boundary edge.
// A vertex has one exactly when BoundaryDistance(v) == 1.
func (g *Graph) FirstBoundaryEdge(v int32) int32 {
	b := g.Boundary()
	for _, e := range g.AdjacentEdges(v) {
		if g.Other(e, v) == b {
			return e
		}
	}
	return -1
}

// Other returns the endpoint of edge e that is not v.
func (g *Graph) Other(e int32, v int32) int32 {
	ed := &g.Edges[e]
	if ed.U == v {
		return ed.V
	}
	return ed.U
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int32) int {
	return int(g.adjStart[v+1] - g.adjStart[v])
}

// New2D builds the single-layer decoding graph of a distance-d surface code
// under perfect measurements. It panics if d < 2.
func New2D(d int) *Graph { return build(d, 1, false) }

// New3D builds the decoding graph for a closed logical cycle: `rounds`
// detector layers with temporal edges between consecutive layers, the last
// round measured perfectly. The paper's configuration is rounds = d. This
// is the graph accuracy simulations use. It panics if d < 2 or rounds < 1.
func New3D(d, rounds int) *Graph { return build(d, rounds, false) }

// New3DWindow builds the continuous-operation decoding window the hardware
// is provisioned for: like New3D, but every layer (including the last) has
// a temporal edge, the last layer's edges terminating on the boundary —
// defects near the window's end may be matched forward into the next
// window. Its edge count, d(d^2+(d-1)^2) + d^2(d-1) for rounds = d, is the
// one the paper's storage model (Table I) provisions.
func New3DWindow(d, rounds int) *Graph { return build(d, rounds, true) }

func build(d, rounds int, window bool) *Graph {
	if d < 2 {
		panic(fmt.Sprintf("lattice: distance %d < 2", d))
	}
	if rounds < 1 {
		panic(fmt.Sprintf("lattice: rounds %d < 1", rounds))
	}
	if window && rounds < 2 {
		panic("lattice: a decoding window needs at least 2 rounds")
	}
	g := &Graph{Distance: d, Rounds: rounds, V: d * (d - 1) * rounds, TimeBoundary: window}
	nEdges := rounds * (d*d + (d-1)*(d-1))
	if rounds > 1 {
		temporalLayers := rounds - 1
		if window {
			temporalLayers = rounds
		}
		nEdges += temporalLayers * d * (d - 1)
	}
	g.Edges = make([]Edge, 0, nEdges)
	b := g.Boundary()
	for t := 0; t < rounds; t++ {
		// Vertical data qubits: column c, vertical position k. k=0 and
		// k=d-1 are boundary edges (north and south).
		for k := 0; k < d; k++ {
			for c := 0; c < d; c++ {
				e := Edge{Kind: Spatial, Qubit: g.VerticalQubit(k, c), Round: int16(t)}
				switch k {
				case 0:
					e.U, e.V = g.VertexID(0, c, t), b
				case d - 1:
					e.U, e.V = g.VertexID(d-2, c, t), b
				default:
					e.U, e.V = g.VertexID(k-1, c, t), g.VertexID(k, c, t)
				}
				g.Edges = append(g.Edges, e)
			}
		}
		// Horizontal data qubits: row r, between columns h and h+1.
		for r := 0; r < d-1; r++ {
			for h := 0; h < d-1; h++ {
				g.Edges = append(g.Edges, Edge{
					U: g.VertexID(r, h, t), V: g.VertexID(r, h+1, t),
					Kind: Spatial, Qubit: g.HorizontalQubit(r, h), Round: int16(t),
				})
			}
		}
		// Temporal edges leaving layer t (measurement error in round t);
		// on a window graph the final layer's edges lead to the boundary.
		if rounds > 1 && (t < rounds-1 || window) {
			for r := 0; r < d-1; r++ {
				for c := 0; c < d; c++ {
					to := b
					if t < rounds-1 {
						to = g.VertexID(r, c, t+1)
					}
					g.Edges = append(g.Edges, Edge{
						U: g.VertexID(r, c, t), V: to,
						Kind: Temporal, Qubit: -1, Round: int16(t),
					})
				}
			}
		}
	}
	g.buildAdjacency()
	g.buildVertexTables()
	return g
}

// buildVertexTables fills the per-vertex coordinate and boundary-distance
// lookups VertexCoords and BoundaryDistance serve.
func (g *Graph) buildVertexTables() {
	d := g.Distance
	g.vpack = make([]uint64, g.V)
	v := 0
	for t := 0; t < g.Rounds; t++ {
		for r := 0; r < d-1; r++ {
			for c := 0; c < d; c++ {
				best := r + 1
				if south := d - 1 - r; south < best {
					best = south
				}
				if g.TimeBoundary {
					if future := g.Rounds - t; future < best {
						best = future
					}
				}
				g.vpack[v] = uint64(r) | uint64(c)<<16 | uint64(t)<<32 | uint64(best)<<48
				v++
			}
		}
	}
}

func (g *Graph) buildAdjacency() {
	counts := make([]int32, g.V+2)
	for _, e := range g.Edges {
		counts[e.U+1]++
		counts[e.V+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	g.adjStart = counts
	g.adjList = make([]int32, counts[len(counts)-1])
	fill := make([]int32, g.V+1)
	copy(fill, counts[:g.V+1])
	for i, e := range g.Edges {
		g.adjList[fill[e.U]] = int32(i)
		fill[e.U]++
		g.adjList[fill[e.V]] = int32(i)
		fill[e.V]++
	}
}

// NorthCutQubits returns the data-qubit indices forming the north boundary
// cut: the d vertical qubits at vertical position k=0. Any error chain
// connecting the north boundary to the south boundary crosses this cut an
// odd number of times, while stabilizers (closed loops and chains returning
// to the same boundary) cross it an even number of times — so odd residual
// parity on this cut is exactly a logical error.
func (g *Graph) NorthCutQubits() []int32 {
	out := make([]int32, g.Distance)
	for c := 0; c < g.Distance; c++ {
		out[c] = g.VerticalQubit(0, c)
	}
	return out
}

// GraphDistance returns the shortest-path length between vertices u and v.
// On this grid the graph metric is the L1 (Manhattan) distance between
// coordinates, which lets the matching decoder avoid explicit shortest-path
// searches.
func (g *Graph) GraphDistance(u, v int32) int {
	ru, cu, tu := g.VertexCoords(u)
	rv, cv, tv := g.VertexCoords(v)
	return abs(ru-rv) + abs(cu-cv) + abs(tu-tv)
}

// BoundaryDistance returns the shortest-path length from vertex v to the
// nearest boundary: the north or south code boundary, or — on a window
// graph — the temporal boundary at the end of the window.
func (g *Graph) BoundaryDistance(v int32) int { return int(g.vpack[v] >> 48) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("lattice.Graph{d=%d rounds=%d V=%d E=%d}",
		g.Distance, g.Rounds, g.V, len(g.Edges))
}
