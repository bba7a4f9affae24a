// Package mwpm implements the Minimum-Weight Perfect-Matching decoder
// [Dennis et al., J. Math. Phys. 43, 4452 (2002)], the accuracy baseline
// the paper measures Figure 3 with.
//
// Decoding as matching. Each defect (non-trivial detection event) must be
// paired either with another defect or with the code boundary; the decoder
// picks the pairing minimizing the total length of the implied error
// chains. On the surface-code grid the chain length between two defects is
// the L1 distance between their coordinates, and a defect may instead be
// matched to the nearest boundary at its boundary distance. Pairing defect
// i with defect j costs min(dist(i,j), bnd(i)+bnd(j)) — routing both chains
// to the boundary is sometimes cheaper than connecting them directly — and
// leaving i alone costs bnd(i).
//
// Exact matching. Rather than a Blossom implementation, the decoder
// computes the exact optimum with dynamic programming over defect subsets
// (O(2^n · n) time). The evaluation only ever runs MWPM on single-round
// 2-D syndromes (Fig. 3), whose defect counts are Poisson with mean ~4p·n_q
// — a handful; the DP is exact for every instance up to MaxExact defects
// and the probability of exceeding that is negligible (< 1e-9 at the
// figure's parameters). Larger instances fall back to a greedy matcher
// with pair-swap refinement, and the fallback count is reported so any run
// where it matters is visible.
package mwpm

import (
	"math/bits"

	"afs/internal/lattice"
)

// boundaryChoice marks "match this defect to the boundary" in the DP
// reconstruction table.
const boundaryChoice = 0xff

// DefaultMaxExact bounds the exact-DP instance size. 2^20 int32 cost
// entries plus choice bytes is ~5.2 MB, allocated only when an instance
// that large appears.
const DefaultMaxExact = 20

// Stats counts how instances were solved.
type Stats struct {
	GreedyInstances uint64 // decodes above MaxExact, matched greedily
}

// Decoder is a reusable MWPM decoder bound to one decoding graph. Not safe
// for concurrent use.
type Decoder struct {
	G *lattice.Graph
	// MaxExact is the largest defect count solved exactly; 0 selects
	// DefaultMaxExact.
	MaxExact int
	Stats    Stats

	rows, cols, lays []int16 // defect coordinates
	bnd              []int32 // boundary distances
	w                []int32 // pair costs, n*n row-major
	dp               []int32
	choice           []uint8
	partner          []int16 // greedy fallback matching
	correction       []int32
}

// NewDecoder builds an MWPM decoder for g.
func NewDecoder(g *lattice.Graph) *Decoder {
	return &Decoder{G: g, MaxExact: DefaultMaxExact}
}

// GreedyFallbacks returns how many decodes so far exceeded MaxExact and
// were matched greedily (Stats.GreedyInstances), the count Monte-Carlo
// runs report.
func (d *Decoder) GreedyFallbacks() uint64 { return d.Stats.GreedyInstances }

// Decode returns the correction for the given defects as edge indices into
// G.Edges. The returned slice is reused by the next call.
func (d *Decoder) Decode(defects []int32) []int32 {
	d.correction = d.correction[:0]
	n := len(defects)
	if n == 0 {
		return d.correction
	}
	d.prepare(defects)
	maxExact := d.MaxExact
	if maxExact <= 0 {
		maxExact = DefaultMaxExact
	}
	if n <= maxExact {
		d.solveExact(n)
	} else {
		d.Stats.GreedyInstances++
		d.solveGreedy(n)
	}
	return d.correction
}

// prepare caches defect coordinates, boundary distances, and the pairwise
// cost matrix.
func (d *Decoder) prepare(defects []int32) {
	n := len(defects)
	d.rows = grow16(d.rows, n)
	d.cols = grow16(d.cols, n)
	d.lays = grow16(d.lays, n)
	d.bnd = grow32(d.bnd, n)
	d.w = grow32(d.w, n*n)
	for i, v := range defects {
		r, c, t := d.G.VertexCoords(v)
		d.rows[i], d.cols[i], d.lays[i] = int16(r), int16(c), int16(t)
		d.bnd[i] = int32(d.G.BoundaryDistance(v))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist := absI32(int32(d.rows[i])-int32(d.rows[j])) +
				absI32(int32(d.cols[i])-int32(d.cols[j])) +
				absI32(int32(d.lays[i])-int32(d.lays[j]))
			via := d.bnd[i] + d.bnd[j]
			if via < dist {
				dist = via
			}
			d.w[i*n+j] = dist
			d.w[j*n+i] = dist
		}
	}
}

// solveExact runs the subset DP and emits the optimal correction.
func (d *Decoder) solveExact(n int) {
	size := 1 << uint(n)
	d.dp = grow32(d.dp, size)
	if cap(d.choice) < size {
		d.choice = make([]uint8, size)
	}
	choice := d.choice[:size]
	dp := d.dp[:size]
	dp[0] = 0
	for s := 1; s < size; s++ {
		i := bits.TrailingZeros(uint(s))
		rest := s &^ (1 << uint(i))
		best := dp[rest] + d.bnd[i]
		bestC := uint8(boundaryChoice)
		for t := rest; t != 0; t &= t - 1 {
			j := bits.TrailingZeros(uint(t))
			cost := dp[rest&^(1<<uint(j))] + d.w[i*n+j]
			if cost < best {
				best = cost
				bestC = uint8(j)
			}
		}
		dp[s] = best
		choice[s] = bestC
	}
	for s := size - 1; s != 0; {
		i := bits.TrailingZeros(uint(s))
		if choice[s] == boundaryChoice {
			d.emitBoundary(i)
			s &^= 1 << uint(i)
		} else {
			j := int(choice[s])
			d.emitPair(i, j)
			s &^= 1<<uint(i) | 1<<uint(j)
		}
	}
}

// solveGreedy matches defects by repeatedly taking the cheapest available
// option (pair or boundary), then improves the result with pair-swap
// refinement until no 2-exchange lowers the cost.
func (d *Decoder) solveGreedy(n int) {
	d.partner = grow16(d.partner, n)
	partner := d.partner[:n]
	for i := range partner {
		partner[i] = -2 // unmatched
	}
	remaining := n
	for remaining > 0 {
		bestCost := int32(1 << 30)
		bi, bj := -1, -1
		for i := 0; i < n; i++ {
			if partner[i] != -2 {
				continue
			}
			if d.bnd[i] < bestCost {
				bestCost, bi, bj = d.bnd[i], i, -1
			}
			for j := i + 1; j < n; j++ {
				if partner[j] != -2 {
					continue
				}
				if c := d.w[i*n+j]; c < bestCost {
					bestCost, bi, bj = c, i, j
				}
			}
		}
		if bj < 0 {
			partner[bi] = -1
			remaining--
		} else {
			partner[bi], partner[bj] = int16(bj), int16(bi)
			remaining -= 2
		}
	}
	d.refine(n, partner)
	for i := 0; i < n; i++ {
		switch {
		case partner[i] == -1:
			d.emitBoundary(i)
		case int(partner[i]) > i:
			d.emitPair(i, int(partner[i]))
		}
	}
}

// refine applies 2-exchange improvements: for every pair of matched
// structures, try the alternative pairings and keep any strict improvement.
func (d *Decoder) refine(n int, partner []int16) {
	cost := func(i int) int32 {
		if partner[i] == -1 {
			return d.bnd[i]
		}
		return d.w[i*n+int(partner[i])]
	}
	improved := true
	for iter := 0; improved && iter < n; iter++ {
		improved = false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if int(partner[i]) == j {
					continue
				}
				pi, pj := partner[i], partner[j]
				old := cost(i) + cost(j)
				// Option: pair i with j, and pair (or boundary) the
				// leftovers with each other.
				leftover := int32(0)
				switch {
				case pi >= 0 && pj >= 0:
					leftover = d.w[int(pi)*n+int(pj)]
				case pi >= 0:
					leftover = d.bnd[pi]
				case pj >= 0:
					leftover = d.bnd[pj]
				}
				if d.w[i*n+j]+leftover < old {
					if pi >= 0 && pj >= 0 {
						partner[pi], partner[pj] = pj, pi
					} else if pi >= 0 {
						partner[pi] = -1
					} else if pj >= 0 {
						partner[pj] = -1
					}
					partner[i], partner[j] = int16(j), int16(i)
					improved = true
				}
			}
		}
	}
}

// emitPair appends the correction chain between defects i and j; when
// routing both to the boundary is cheaper, it does that instead (matching
// the cost the solvers minimized).
func (d *Decoder) emitPair(i, j int) {
	dist := absI32(int32(d.rows[i])-int32(d.rows[j])) +
		absI32(int32(d.cols[i])-int32(d.cols[j])) +
		absI32(int32(d.lays[i])-int32(d.lays[j]))
	if d.bnd[i]+d.bnd[j] < dist {
		d.emitBoundary(i)
		d.emitBoundary(j)
		return
	}
	r1, c1, t1 := int(d.rows[i]), int(d.cols[i]), int(d.lays[i])
	r2, c2, t2 := int(d.rows[j]), int(d.cols[j]), int(d.lays[j])
	d.emitPath(r1, c1, t1, r2, c2, t2)
}

// emitPath walks from (r1,c1,t1) to (r2,c2,t2): rows first (vertical data
// qubits in column c1), then columns (horizontal qubits in row r2), then
// layers (temporal edges). Any monotone path has minimal length on this
// grid.
func (d *Decoder) emitPath(r1, c1, t1, r2, c2, t2 int) {
	g := d.G
	dr := 1
	if r2 < r1 {
		dr = -1
	}
	for r := r1; r != r2; r += dr {
		k := r + 1 // edge between ancilla rows r and r+1
		if dr < 0 {
			k = r
		}
		d.correction = append(d.correction, g.SpatialEdge(g.VerticalQubit(k, c1), t1))
	}
	dc := 1
	if c2 < c1 {
		dc = -1
	}
	for c := c1; c != c2; c += dc {
		h := c // horizontal qubit between columns c and c+1
		if dc < 0 {
			h = c - 1
		}
		d.correction = append(d.correction, g.SpatialEdge(g.HorizontalQubit(r2, h), t1))
	}
	dt := 1
	if t2 < t1 {
		dt = -1
	}
	for t := t1; t != t2; t += dt {
		tt := t // temporal edge between layers t and t+1
		if dt < 0 {
			tt = t - 1
		}
		d.correction = append(d.correction, g.TemporalEdge(r2, c2, tt))
	}
}

// emitBoundary appends the chain from defect i to its nearest boundary
// (north/south code boundary, or the temporal window boundary when that is
// closer).
func (d *Decoder) emitBoundary(i int) {
	g := d.G
	r, c, t := int(d.rows[i]), int(d.cols[i]), int(d.lays[i])
	north := r + 1
	south := g.Distance - 1 - r
	if g.TimeBoundary && g.Rounds-t < north && g.Rounds-t < south {
		for tt := t; tt < g.Rounds; tt++ {
			d.correction = append(d.correction, g.TemporalEdge(r, c, tt))
		}
		return
	}
	if north <= south {
		for k := r; k >= 0; k-- {
			d.correction = append(d.correction, g.SpatialEdge(g.VerticalQubit(k, c), t))
		}
	} else {
		for k := r + 1; k <= g.Distance-1; k++ {
			d.correction = append(d.correction, g.SpatialEdge(g.VerticalQubit(k, c), t))
		}
	}
}

func absI32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

func grow16(s []int16, n int) []int16 {
	if cap(s) < n {
		return make([]int16, n)
	}
	return s[:n]
}

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
