// Package core implements the paper's primary contribution: the Union-Find
// decoder for surface codes [Delfosse & Nickerson, arXiv:1709.06218;
// Delfosse & Zémor, arXiv:1703.01517], structured as the three steps that
// become the AFS pipeline stages (paper §IV):
//
//  1. Cluster Growth (the Gr-Gen stage): clusters are grown by half an edge
//     at a time around the non-trivial detection events until every cluster
//     covers an even number of them or touches a code boundary.
//  2. Spanning-Forest Generation (the DFS Engine): a spanning tree is built
//     over each cluster with an explicit-stack depth-first search.
//  3. Peeling (the CORR Engine): each spanning tree is traversed in reverse,
//     emitting the correction edges that reproduce the measured syndrome.
//
// The decoder works unchanged on 2-dimensional graphs (perfect
// measurements) and on the 3-dimensional graphs used to tolerate
// measurement errors, because both are just lattice.Graphs with boundaries.
//
// The implementation deliberately exposes the quantities the hardware model
// needs — per-cluster growth steps and sizes, stack high-water marks, and
// memory-access counts — so that internal/microarch can charge latency to
// the same events the paper's Equations (2) and (3) count.
package core

import (
	"fmt"
	"math/bits"
	"slices"

	"afs/internal/lattice"
	"afs/internal/unionfind"
)

// Options configure decoder variants for the ablation studies in DESIGN.md.
// The zero value selects the full AFS configuration.
type Options struct {
	// DisableWeightedUnion turns off union by size (the Size Table).
	DisableWeightedUnion bool
	// DisablePathCompression turns off path compression (the tree-traversal
	// registers).
	DisablePathCompression bool
	// LeanStats skips the per-decode execution profile — ZDR row tracking,
	// growth-traffic counters, and per-cluster stats — leaving only
	// NumDefects, GrowthRounds, SupportEdges and CorrectionEdges valid.
	// Bulk Monte-Carlo accuracy runs enable it: they consume none of the
	// profile, and the bookkeeping sits on the decode hot path. The
	// micro-architecture latency model must run with it off.
	LeanStats bool
	// ClusterStats, with LeanStats on, restores just the per-cluster
	// profiles (Stats.Clusters: vertices, growth steps, defects, boundary
	// contact) while keeping every per-access counter off. The traversal
	// already computes those values for peeling, so the cost is one append
	// per cluster — unlike the full profile, whose per-visit row tracking
	// and counting Union-Find variants sit on the growth hot path. The
	// streaming deadline model needs exactly this slice
	// (microarch.Model.Latency) and nothing else. Ignored when LeanStats is
	// off (the full profile subsumes it).
	ClusterStats bool
}

// ClusterStat describes one peeled cluster; the micro-architecture latency
// model consumes these (paper Eqs. 2-3).
type ClusterStat struct {
	// Vertices is |V(C_i)|, the number of real vertices in the cluster.
	Vertices int
	// GrowthSteps is the number of half-edge growth rounds the cluster
	// participated in while odd (the paper's diam(C_i) proxy: a cluster
	// grown for k rounds has radius k half-edges).
	GrowthSteps int
	// Defects is the number of non-trivial detection events it covers.
	Defects int
	// TouchesBoundary reports whether the cluster reached a code boundary.
	TouchesBoundary bool
}

// DecodeStats captures the per-syndrome execution profile of one decode.
type DecodeStats struct {
	NumDefects      int
	GrowthRounds    int // global growth iterations until no odd cluster remains
	SupportEdges    int // edges fully grown (the erasure handed to peeling)
	Clusters        []ClusterStat
	CorrectionEdges int
	// MaxRuntimeStack and MaxEdgeStack are the high-water marks of the DFS
	// Engine's runtime stack and edge stack, used to validate the storage
	// provisioning in internal/storage.
	MaxRuntimeStack int
	MaxEdgeStack    int
	// RootTableAccesses and SizeTableAccesses count Union-Find memory
	// operations (reads+writes) during Gr-Gen.
	RootTableAccesses uint64
	SizeTableAccesses uint64
	// GrowthIncrements counts STM edge-field updates (half-edge growth
	// writes) and GrowthVisits counts boundary-list vertex visits during
	// Gr-Gen; together they approximate the stage's STM traffic.
	GrowthIncrements uint64
	GrowthVisits     uint64
	// TouchedRows is the number of distinct 32-bit STM vertex rows holding
	// cluster state after this decode — exactly the rows whose Zero Data
	// Register bit is set, i.e. the rows the ZDR lets the DFS Engine visit
	// instead of scanning the whole memory.
	TouchedRows int
}

// Decoder is a reusable Union-Find decoder bound to one decoding graph.
// A Decoder is not safe for concurrent use; Monte-Carlo workers each own
// one, exactly as every logical qubit owns decoding hardware.
type Decoder struct {
	G    *lattice.Graph
	Opts Options

	uf     *unionfind.Forest
	growth []uint8 // 0, 1 (half-grown) or 2 (in the support)
	defect []bool  // per real vertex
	parOdd []bool  // per root: odd number of defects
	hasB   []bool  // per root: cluster contains a boundary vertex
	steps  []int32 // per root: growth rounds participated in
	nDef   []int32 // per root: number of defects covered

	// Per-cluster vertex lists ("boundary lists" in UF terminology): a
	// singly-linked list per root of vertices that may still have
	// non-fully-grown incident edges.
	listHead, listTail, listNext []int32

	active  []int32 // roots of odd, non-boundary clusters
	merged  []int32 // edges fully grown during the current sweep
	stamp   []int32 // deduplication stamps for active-list rebuild
	stampID int32

	// adjMask[v] has bit s set iff v's s-th adjacent edge is not yet fully
	// grown, so a growth sweep visits only growable edges instead of
	// rescanning full ones every round. fullMask holds the pristine
	// all-edges-growable masks. adjBase/adjFar/adjFarBit mirror the graph's
	// adjacency rows: entry adjBase[v]+s holds the far endpoint of v's s-th
	// adjacent edge and that endpoint's mask bit for the same edge, so
	// filling an edge clears the far side's bit without loading the edge
	// record. The virtual boundary vertex carries no mask (its degree
	// exceeds the mask width, and growth never sweeps it); far entries that
	// point at it use a zero bit, making the far clear a no-op.
	adjMask   []uint16
	fullMask  []uint16
	adjBase   []int32
	adjFar    []int32
	adjFarBit []uint16

	// Undo logs for the sparse reset: touchedEdges records every edge whose
	// growth state left 0, and touchedVerts every vertex that joined a
	// cluster (defects when marked, union-edge endpoints when merged).
	// Cluster and Union-Find state is only ever modified on cluster members
	// and the boundary vertex, so replaying the logs restores pristine state
	// in O(work done) instead of O(V+E). resetStamp dedupes touchedVerts at
	// insertion time, so the restore loop runs once per unique vertex.
	touchedEdges []int32
	touchedVerts []int32
	resetStamp   []int32
	resetEpoch   int32

	// Pristine images for the bulk-reset path: identVert is the identity
	// mapping (listHead/listTail at rest) and allNil is all nilList. When a
	// dense syndrome grows support over most of the lattice, replaying the
	// undo log costs more than rewriting every row with vectorized
	// copies/clears; bulkThreshold is the crossover in touched-work units.
	identVert     []int32
	allNil        []int32
	bulkThreshold int

	// Spanning forest built during Gr-Gen: every merged edge whose endpoints
	// were in distinct components at merge time is a tree edge, so the union
	// step yields each cluster's spanning tree for free. treeAdjHead[v]
	// heads a singly-linked list of adjacency slots (slot 2e is edge e in
	// U's list, 2e+1 in V's); peeling walks these lists instead of scanning
	// full lattice adjacency and growth state. treeAdjFar[s] is the static
	// far endpoint of slot s (V for 2e, U for 2e+1), so the walk never
	// consults the edge records.
	treeAdjHead []int32
	treeAdjNext []int32
	treeAdjFar  []int32

	rowStamp []int32 // per 32-vertex STM row: ZDR occupancy stamps
	rowEpoch int32

	// Peeling state.
	visited  []bool
	visitLog []int32
	tree     []treeRec // spanning-forest edges in DFS order
	runtime  []int32   // DFS Engine runtime stack (vertices)

	correction []int32 // edge indices, reused across decodes
	Stats      DecodeStats
}

// treeRec is one oriented spanning-forest edge: child joined the tree from
// parent via edge. One record per entry keeps the DFS append and the
// reverse CORR sweep on a single contiguous stream.
type treeRec struct {
	child, parent, edge int32
}

const nilList = int32(-1)

// NewDecoder builds a decoder for g with the given options.
func NewDecoder(g *lattice.Graph, opts Options) *Decoder {
	n := g.V + 1 // real vertices plus the virtual boundary vertex
	d := &Decoder{
		G:          g,
		Opts:       opts,
		uf:         unionfind.New(n),
		growth:     make([]uint8, len(g.Edges)),
		defect:     make([]bool, g.V),
		parOdd:     make([]bool, n),
		hasB:       make([]bool, n),
		steps:      make([]int32, n),
		nDef:       make([]int32, n),
		listHead:   make([]int32, n),
		listTail:   make([]int32, n),
		listNext:   make([]int32, n),
		stamp:      make([]int32, n),
		resetStamp: make([]int32, n),
		rowStamp:   make([]int32, (g.V+31)/32),
		visited:    make([]bool, n),
	}
	// Establish the pristine state the sparse reset maintains: every vertex
	// a singleton list, the boundary flagged. reset() only rewinds the
	// entries the previous decode touched.
	d.identVert = make([]int32, n)
	d.allNil = make([]int32, n)
	for i := 0; i < n; i++ {
		d.identVert[i] = int32(i)
		d.allNil[i] = nilList
	}
	copy(d.listHead, d.identVert)
	copy(d.listTail, d.identVert)
	copy(d.listNext, d.allNil)
	d.treeAdjHead = make([]int32, n)
	copy(d.treeAdjHead, d.allNil)
	d.treeAdjNext = make([]int32, 2*len(g.Edges))
	d.treeAdjFar = make([]int32, 2*len(g.Edges))
	for e := range g.Edges {
		d.treeAdjFar[2*e] = g.Edges[e].V
		d.treeAdjFar[2*e+1] = g.Edges[e].U
	}
	d.adjMask = make([]uint16, n)
	d.fullMask = make([]uint16, n)
	d.adjBase = make([]int32, g.V)
	b := g.Boundary()
	// First pass: per-vertex masks and row bases.
	total := 0
	for v := int32(0); v < int32(g.V); v++ {
		adj := g.AdjacentEdges(v)
		if len(adj) > 16 {
			panic("core: vertex degree exceeds adjacency mask width")
		}
		d.fullMask[v] = uint16(1)<<uint(len(adj)) - 1
		d.adjBase[v] = int32(total)
		total += len(adj)
	}
	// Second pass: each row entry holds the far endpoint and its mask bit
	// for the shared edge (zero bit for the maskless boundary vertex).
	d.adjFar = make([]int32, total)
	d.adjFarBit = make([]uint16, total)
	for v := int32(0); v < int32(g.V); v++ {
		base := d.adjBase[v]
		for s, e := range g.AdjacentEdges(v) {
			far := g.Other(e, v)
			d.adjFar[base+int32(s)] = far
			if far != b {
				d.adjFarBit[base+int32(s)] = slotBit(g.AdjacentEdges(far), e)
			}
		}
	}
	copy(d.adjMask, d.fullMask)
	d.bulkThreshold = n
	d.hasB[g.Boundary()] = true
	return d
}

// slotBit returns the mask bit of edge e in the adjacency row adj (a real
// vertex's, so at most 16 entries), or 0 if e is not in the row.
func slotBit(adj []int32, e int32) uint16 {
	for s, x := range adj {
		if x == e {
			return 1 << uint(s)
		}
	}
	return 0
}

// Decode processes one syndrome (the sorted list of vertices with
// non-trivial detection events) and returns the correction as a list of
// edge indices into G.Edges. The returned slice is reused by the next call.
func (d *Decoder) Decode(defects []int32) []int32 {
	d.reset(defects)
	if len(defects) > 0 {
		d.growClusters()
		d.peel(defects)
	}
	d.Stats.NumDefects = len(defects)
	d.Stats.CorrectionEdges = len(d.correction)
	d.Stats.RootTableAccesses = d.uf.RootReads + d.uf.RootWrites
	d.Stats.SizeTableAccesses = d.uf.SizeReads + d.uf.SizeWrites
	return d.correction
}

func (d *Decoder) reset(defects []int32) {
	d.Stats = DecodeStats{Clusters: d.Stats.Clusters[:0]}
	b := d.G.Boundary()
	if len(d.touchedEdges)+len(d.touchedVerts) >= d.bulkThreshold {
		// Dense rewind: the previous support covered so much of the lattice
		// that replaying the undo log would cost more than rewriting every
		// row with vectorized clears and copies of the pristine images.
		clear(d.growth)
		clear(d.parOdd)
		clear(d.hasB)
		clear(d.steps)
		clear(d.nDef)
		copy(d.listHead, d.identVert)
		copy(d.listTail, d.identVert)
		copy(d.listNext, d.allNil)
		copy(d.treeAdjHead, d.allNil)
		copy(d.adjMask, d.fullMask)
		d.uf.Reset()
	} else {
		// Sparse rewind: only state the previous decode touched needs
		// restoring. Cluster and Union-Find state is only ever modified on
		// cluster members — all logged in touchedVerts, each exactly once —
		// and on the boundary vertex.
		d.uf.ResetCounters()
		for _, e := range d.touchedEdges {
			d.growth[e] = 0
		}
		for _, v := range d.touchedVerts {
			d.restoreVertex(v)
		}
		d.restoreVertex(b)
	}
	d.touchedEdges = d.touchedEdges[:0]
	d.touchedVerts = d.touchedVerts[:0]
	d.resetEpoch++
	d.hasB[b] = true
	d.rowEpoch++
	lean := d.Opts.LeanStats
	for _, v := range defects {
		d.defect[v] = true
		d.parOdd[v] = true
		d.nDef[v] = 1
		d.touch(v)
		if !lean {
			d.touchRow(v)
		}
	}
	d.active = append(d.active[:0], defects...)
	d.correction = d.correction[:0]
}

// restoreVertex returns vertex v's cluster and Union-Find state to the
// pristine post-construction values.
func (d *Decoder) restoreVertex(v int32) {
	d.parOdd[v] = false
	d.hasB[v] = false
	d.steps[v] = 0
	d.nDef[v] = 0
	d.listHead[v] = v
	d.listTail[v] = v
	d.listNext[v] = nilList
	d.treeAdjHead[v] = nilList
	d.adjMask[v] = d.fullMask[v]
	d.uf.Reinit(v)
}

// touch logs v as a cluster member for the next sparse reset; the epoch
// stamp makes the log duplicate-free.
func (d *Decoder) touch(v int32) {
	if d.resetStamp[v] != d.resetEpoch {
		d.resetStamp[v] = d.resetEpoch
		d.touchedVerts = append(d.touchedVerts, v)
	}
}

func (d *Decoder) find(v int32) int32 {
	if d.Opts.DisablePathCompression {
		return d.uf.FindNoCompress(v)
	}
	if d.Opts.LeanStats {
		return d.uf.FindQuiet(v)
	}
	return d.uf.Find(v)
}

func (d *Decoder) unionRoots(ra, rb int32) int32 {
	var rn int32
	switch {
	case d.Opts.DisableWeightedUnion:
		rn = d.uf.UnionRootsUnweighted(ra, rb)
	case d.Opts.LeanStats:
		rn = d.uf.UnionRootsQuiet(ra, rb)
	default:
		rn = d.uf.UnionRoots(ra, rb)
	}
	rd := ra
	if rd == rn {
		rd = rb
	}
	// Fold the dead root's cluster attributes into the survivor.
	d.parOdd[rn] = d.parOdd[rn] != d.parOdd[rd]
	d.hasB[rn] = d.hasB[rn] || d.hasB[rd]
	if d.steps[rd] > d.steps[rn] {
		d.steps[rn] = d.steps[rd]
	}
	d.nDef[rn] += d.nDef[rd]
	// Concatenate vertex lists in O(1).
	d.listNext[d.listTail[rn]] = d.listHead[rd]
	d.listTail[rn] = d.listTail[rd]
	return rn
}

// growClusters runs the Gr-Gen step: repeated half-edge growth of every
// odd cluster until all clusters are even or boundary-attached.
func (d *Decoder) growClusters() {
	for len(d.active) > 0 {
		d.Stats.GrowthRounds++
		d.merged = d.merged[:0]
		for _, r := range d.active {
			d.growOne(r)
		}
		// Each 0→1 transition appended to touchedEdges and each 1→2 to
		// merged, so the STM write counters fall out of the log lengths
		// without per-event increments on the hot path.
		if len(d.merged) == 0 {
			// Roots, parities, and boundary flags only change in the merge
			// loop below, so a merge-free round (typical for the 0→1 half of
			// the grow cadence) leaves the active list exactly as it was.
			continue
		}
		d.Stats.GrowthIncrements += uint64(len(d.merged))
		// Canonical merge schedule: process the round's fully-grown edges in
		// ascending edge order, not discovery order. Within one round the set
		// of crossing edges is fixed (growth is additive and saturating, so
		// which edges reach 2 does not depend on sweep order), but the union
		// sequence decides which spanning tree the peeler walks. Fixing the
		// sequence to ascending edge index makes the whole decode a pure
		// function of the per-round support, independent of the order the
		// sweep discovers merges in. The correction slices the identity
		// suites pin depend on this order.
		slices.Sort(d.merged)
		for _, e := range d.merged {
			ed := &d.G.Edges[e]
			ru, rv := d.find(ed.U), d.find(ed.V)
			if ru != rv {
				d.unionRoots(ru, rv)
				// A merge between distinct components is a tree edge: the
				// union step builds each cluster's spanning forest as a
				// side effect, which is what peeling traverses.
				d.touch(ed.U)
				d.touch(ed.V)
				d.treeAdjNext[2*e] = d.treeAdjHead[ed.U]
				d.treeAdjHead[ed.U] = 2 * e
				d.treeAdjNext[2*e+1] = d.treeAdjHead[ed.V]
				d.treeAdjHead[ed.V] = 2*e + 1
			}
		}
		d.rebuildActive()
	}
	d.Stats.GrowthIncrements += uint64(len(d.touchedEdges))
}

// growOne grows cluster r (a current root) by half an edge around every
// vertex on its boundary list, unlinking vertices that have become
// interior.
func (d *Decoder) growOne(r int32) {
	d.steps[r]++
	prev := nilList
	lean := d.Opts.LeanStats
	b := int32(d.G.V)
	v := d.listHead[r]
	for v != nilList {
		nxt := d.listNext[v]
		if !lean {
			d.Stats.GrowthVisits++
			if v != b { // cluster vertices light their ZDR row
				d.touchRow(v)
			}
		}
		m := d.adjMask[v]
		if m == 0 {
			// Interior vertex (every incident edge already full at the start
			// of this visit): unlink so later sweeps skip it.
			if prev == nilList {
				d.listHead[r] = nxt
			} else {
				d.listNext[prev] = nxt
			}
			if nxt == nilList {
				d.listTail[r] = prev
				if prev == nilList {
					// List emptied; keep the root itself as a sentinel so
					// concatenation during a later merge stays valid.
					d.listHead[r] = r
					d.listTail[r] = r
					d.listNext[r] = nilList
				}
			}
			v = nxt
			continue
		}
		adj := d.G.AdjacentEdges(v)
		base := d.adjBase[v]
		// Bits in m are exactly the slots whose edge has growth < 2, so the
		// sweep touches no fully-grown edge.
		for mm := m; mm != 0; mm &= mm - 1 {
			slot := bits.TrailingZeros16(mm)
			e := adj[slot]
			if d.growth[e] == 0 {
				d.growth[e] = 1
				d.touchedEdges = append(d.touchedEdges, e)
			} else {
				d.growth[e] = 2
				d.merged = append(d.merged, e)
				m &^= 1 << uint(slot)
				// Clear the far endpoint's slot too (a no-op zero bit when
				// the far endpoint is the maskless boundary vertex).
				pos := base + int32(slot)
				d.adjMask[d.adjFar[pos]] &^= d.adjFarBit[pos]
			}
		}
		d.adjMask[v] = m
		prev = v
		v = nxt
	}
}

// touchRow marks vertex v's 32-bit STM row occupied (the Zero Data
// Register bit the DFS Engine consults) and counts first touches.
func (d *Decoder) touchRow(v int32) {
	row := v >> 5
	if d.rowStamp[row] != d.rowEpoch {
		d.rowStamp[row] = d.rowEpoch
		d.Stats.TouchedRows++
	}
}

// rebuildActive re-derives the odd-cluster worklist after a growth sweep.
func (d *Decoder) rebuildActive() {
	d.stampID++
	out := d.active[:0]
	for _, r := range d.active {
		rr := d.find(r)
		if d.stamp[rr] == d.stampID {
			continue
		}
		d.stamp[rr] = d.stampID
		if d.parOdd[rr] && !d.hasB[rr] {
			out = append(out, rr)
		}
	}
	d.active = out
}

// peel runs the DFS Engine and CORR Engine steps: it walks the spanning
// forest Gr-Gen built (rooting boundary-attached components at the
// boundary) and peels each tree leaf-first, emitting correction edges.
// After peeling, every defect mark has been cleared.
func (d *Decoder) peel(defects []int32) {
	d.visitLog = d.visitLog[:0]
	b := d.G.Boundary()

	// Boundary-attached components first, each boundary subtree counted as
	// its own cluster (physically distinct clusters share only the virtual
	// boundary vertex). The boundary's tree-adjacency list holds exactly
	// the support edges that merged a cluster into the boundary.
	d.visited[b] = true
	d.visitLog = append(d.visitLog, b)
	for s := d.treeAdjHead[b]; s != nilList; s = d.treeAdjNext[s] {
		u := d.treeAdjFar[s]
		if d.visited[u] {
			continue
		}
		d.peelTree(u, s>>1, true)
	}
	// Interior components, rooted at a defect each.
	for _, v := range defects {
		if !d.visited[v] {
			d.peelTree(v, -1, false)
		}
	}
	for _, v := range d.visitLog {
		d.visited[v] = false
	}
}

// peelTree explores one spanning tree rooted at `root` (whose edge to the
// boundary, if any, is rootEdge) and peels it. The traversal follows the
// tree-adjacency lists only, so each vertex costs O(tree degree) instead
// of a scan over its full lattice adjacency.
func (d *Decoder) peelTree(root int32, rootEdge int32, boundary bool) {
	d.tree = d.tree[:0]
	d.runtime = d.runtime[:0]

	d.visited[root] = true
	d.visitLog = append(d.visitLog, root)
	vertices := 1
	origDefects := 0
	if d.defect[root] {
		origDefects++
	}
	d.runtime = append(d.runtime, root)
	maxRT := 1
	for len(d.runtime) > 0 {
		v := d.runtime[len(d.runtime)-1]
		d.runtime = d.runtime[:len(d.runtime)-1]
		for s := d.treeAdjHead[v]; s != nilList; s = d.treeAdjNext[s] {
			u := d.treeAdjFar[s]
			if d.visited[u] { // covers the parent and the boundary vertex
				continue
			}
			d.visited[u] = true
			d.visitLog = append(d.visitLog, u)
			vertices++
			if d.defect[u] {
				origDefects++
			}
			d.tree = append(d.tree, treeRec{child: u, parent: v, edge: s >> 1})
			d.runtime = append(d.runtime, u)
			if len(d.runtime) > maxRT {
				maxRT = len(d.runtime)
			}
		}
	}

	// CORR: reverse traversal of the tree-edge stack. A defect on the child
	// side selects the edge into the correction and flips the parent's
	// defect state; defects reaching a boundary-rooted tree's root are
	// flushed through the root edge into the boundary.
	for i := len(d.tree) - 1; i >= 0; i-- {
		r := &d.tree[i]
		if d.defect[r.child] {
			d.defect[r.child] = false
			d.correction = append(d.correction, r.edge)
			d.defect[r.parent] = !d.defect[r.parent]
		}
	}
	if d.defect[root] {
		d.defect[root] = false
		if boundary {
			d.correction = append(d.correction, rootEdge)
		} else {
			// An interior tree must cover an even number of defects; an odd
			// leftover indicates a broken growth invariant.
			panic(fmt.Sprintf("core: interior cluster at vertex %d left an unmatched defect", root))
		}
	}

	if !d.Opts.LeanStats || d.Opts.ClusterStats {
		d.Stats.Clusters = append(d.Stats.Clusters, ClusterStat{
			Vertices:        vertices,
			GrowthSteps:     int(d.steps[d.find(root)]),
			Defects:         origDefects,
			TouchesBoundary: boundary,
		})
	}
	if maxRT > d.Stats.MaxRuntimeStack {
		d.Stats.MaxRuntimeStack = maxRT
	}
	if len(d.tree) > d.Stats.MaxEdgeStack {
		d.Stats.MaxEdgeStack = len(d.tree)
	}
	d.Stats.SupportEdges += len(d.tree)
}
