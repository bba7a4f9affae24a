package core

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"afs/internal/lattice"
)

// This file implements the tile-parallel Union-Find growth engine for the
// heavy tail: the near-threshold, high-weight windows that survive triage
// and partial-residual peeling and dominate worst-case decode latency
// (ROADMAP items 1 & 3). It follows the shape of the strictly-local and
// FPGA decoders (Actis, arXiv 2305.18534; Helios, arXiv 2301.08419): the
// spatial lattice is partitioned into tiles, each growth round runs
// concurrently within tiles, and cross-tile effects are reconciled by a
// deterministic merge schedule.
//
// # Bit-identity contract
//
// The engine produces the exact correction slice the sequential Decoder
// produces, for every tile size and worker count. The argument has two
// halves:
//
//  1. Per-round growth is order-free. Within one round, an edge's growth
//     increases by one per visiting endpoint that belongs to an active
//     (odd, boundary-free) cluster, saturating at 2. Which endpoints are
//     active is fixed before the round starts, so the set of edges that
//     reach the support this round — and the whole per-round support
//     evolution — does not depend on visit order. The parallel phase
//     therefore only needs atomic saturating adds; no ordering.
//
//  2. Everything order-sensitive is sequential and canonical. The union
//     sequence decides which spanning forest the peeler walks, so the
//     reconciliation phase processes each round's crossing edges in
//     ascending edge order — the same canonical schedule growClusters
//     uses — through the same unionRoots/treeAdj code. Identical union
//     sequence, identical parity/boundary/steps folds, identical forest,
//     identical peel, identical correction slice.
//
// The crossing *events* are detected concurrently (the endpoint whose
// atomic add observes growth 1 logs the edge), so which tile logs an edge
// is scheduling-dependent — but the union of the per-tile logs is exactly
// the round's crossing set, and sorting it erases the nondeterminism
// before any order-sensitive state is touched.
//
// # Cost model
//
// Wall-clock speedup from goroutines is bounded by the host's cores, which
// says nothing about the decoder ASIC/FPGA this models. The engine
// therefore also meters deterministic work units per round: the critical
// path of the parallel phase (the slowest tile, plus the sequential
// reconciliation) versus the sequential engine's total (active-cluster
// work plus reconciliation). The ratio is the speedup a machine with one
// growth unit per tile realizes, it is bit-identical across worker counts,
// and it is what the heavy-window perf floor pins (the same model-ns
// philosophy the streaming deadline ledger uses).

// DefaultTileSize is the spatial tile edge (in ancilla rows/columns) used
// when TileConfig.TileSize is zero. Seven gives a d=21 lattice a 3x3
// partition — nine growth units, comfortably past the 1.5x critical-path
// floor — while keeping per-tile state larger than the reconciliation
// constant.
const DefaultTileSize = 7

// TileConfig configures a TileDecoder.
type TileConfig struct {
	// TileSize is the spatial tile edge in ancilla rows/columns; tiles span
	// the full time extent of the window (temporal edges never cross
	// tiles). 0 selects DefaultTileSize.
	TileSize int
	// Workers is the number of concurrent growth workers; 0 selects
	// GOMAXPROCS. The worker count never changes results (test-enforced),
	// only wall-clock behavior; it is capped at the tile count.
	Workers int
}

func (c TileConfig) tileSize() int {
	if c.TileSize <= 0 {
		return DefaultTileSize
	}
	return c.TileSize
}

// TileStats describes one tile-parallel decode (or, for the Total fields'
// consumers, an accumulation — see TileDecoder.Totals).
type TileStats struct {
	// Tiles is the partition size; TilesTouched how many tiles held any
	// cluster state this decode.
	Tiles        int
	TilesTouched int
	// BoundaryMerges counts support edges whose endpoints lie in different
	// tiles — the merges only the reconciliation phase may apply.
	BoundaryMerges int
	// ReconcileRounds counts growth rounds that produced at least one
	// crossing edge (rounds the sequential phase had real work).
	ReconcileRounds int
	// SeqUnits is the work the sequential engine performs for this decode
	// (active-cluster visits + growth increments + reconciliation);
	// CritUnits is the parallel engine's critical path (slowest tile per
	// round + reconciliation). Both are deterministic across worker counts.
	SeqUnits  int64
	CritUnits int64
	// Speedup is SeqUnits/CritUnits — the model speedup of one growth unit
	// per tile over a single sequential unit.
	Speedup float64
}

// TileDecoder decodes syndromes with tile-parallel cluster growth. It
// wraps a sequential Decoder (whose reset, union bookkeeping, and peeling
// it reuses) and replaces only the growth loop. Like Decoder it is
// single-owner: concurrency lives inside one Decode call, never across
// calls.
type TileDecoder struct {
	d *Decoder

	size    int
	workers int
	tilesR  int
	tilesC  int
	nTiles  int

	tileOf []int16 // per real vertex: owning tile
	bv     int32   // virtual boundary vertex (no tile)

	// growth32 mirrors Decoder.growth as int32 so the parallel phase can
	// use atomic adds; it is pristine zero between decodes (rewound through
	// the decoder's touched-edge log).
	growth32 []int32
	// eBitU/eBitV give each edge's adjacency-mask bit at its U/V endpoint
	// (zero at the maskless boundary vertex), so reconciliation can clear
	// both sides of a crossed edge without re-deriving slots.
	eBitU, eBitV []uint16

	// Per-tile live lists: cluster members that may still have growable
	// edges. Additions happen in the sequential phases (defect seeding and
	// union reconciliation); pruning of interior vertices happens in the
	// parallel phase by the tile's owning worker, so the lists are
	// single-writer at every instant.
	live   [][]int32
	inLive []bool
	// dirty lists the tiles that held live state this decode, in join
	// order; inDirty is the membership bitmap. Membership must be tracked
	// explicitly — a pruned-to-empty live list is NOT a proxy for "not in
	// dirty" (growTile prunes live lists mid-decode while the tile stays in
	// dirty), and a duplicate dirty entry would let two workers race on the
	// same tile's state.
	dirty   []int16
	inDirty []bool

	rootActive []int64 // per root: stamp of the round it is active in
	roundID    int64

	// Per-tile round logs and work meters, owned by the processing worker.
	touchedT [][]int32
	mergedT  [][]int32
	opsT     []int64 // total visits+increments (scan overhead included)
	activeT  []int64 // active-cluster visits+increments only

	merged  []int32 // gathered crossing edges, sorted ascending
	touched []int32 // gathered first-touched edges, sorted ascending

	cursor atomic.Int32 // tile-claim cursor for the worker pool
	nRound int32        // dirty-tile count visible to workers this round

	last   TileStats
	totals TileStats
	shard  int
}

// NewTileDecoder builds a tile-parallel decoder for g. The wrapped
// sequential decoder uses opts with the sparse shortcut forced off: the
// tile engine exists for exactly the syndromes the shortcut declines, and
// the bit-identity contract is against the full grow/peel pipeline.
func NewTileDecoder(g *lattice.Graph, opts Options, cfg TileConfig) *TileDecoder {
	opts.SparseShortcut = false
	size := cfg.tileSize()
	t := &TileDecoder{
		d:       NewDecoder(g, opts),
		size:    size,
		tilesR:  (g.Distance - 1 + size - 1) / size,
		tilesC:  (g.Distance + size - 1) / size,
		bv:      g.Boundary(),
		workers: cfg.Workers,
		shard:   nextTileShard(),
	}
	t.nTiles = t.tilesR * t.tilesC
	if t.workers <= 0 {
		t.workers = runtime.GOMAXPROCS(0)
	}
	if t.workers > t.nTiles {
		t.workers = t.nTiles
	}
	t.tileOf = make([]int16, g.V)
	per := g.LayerVertices()
	for v := 0; v < g.V; v++ {
		rc := v % per
		r, c := rc/g.Distance, rc%g.Distance
		t.tileOf[v] = int16((r/size)*t.tilesC + c/size)
	}
	t.growth32 = make([]int32, len(g.Edges))
	t.eBitU = make([]uint16, len(g.Edges))
	t.eBitV = make([]uint16, len(g.Edges))
	for v := int32(0); v < int32(g.V); v++ {
		for s, e := range g.AdjacentEdges(v) {
			if g.Edges[e].U == v {
				t.eBitU[e] = 1 << uint(s)
			} else {
				t.eBitV[e] = 1 << uint(s)
			}
		}
	}
	t.live = make([][]int32, t.nTiles)
	t.inLive = make([]bool, g.V)
	t.inDirty = make([]bool, t.nTiles)
	t.touchedT = make([][]int32, t.nTiles)
	t.mergedT = make([][]int32, t.nTiles)
	t.opsT = make([]int64, t.nTiles)
	t.activeT = make([]int64, t.nTiles)
	t.rootActive = make([]int64, g.V+1)
	return t
}

// Graph returns the decoding graph the decoder is bound to.
func (t *TileDecoder) Graph() *lattice.Graph { return t.d.G }

// Stats returns the wrapped decoder's per-syndrome execution profile
// (filled by peeling exactly as in a sequential decode).
func (t *TileDecoder) Stats() *DecodeStats { return &t.d.Stats }

// LastStats returns the tile-level profile of the most recent Decode;
// Totals the accumulation over the decoder's lifetime (with Speedup the
// aggregate SeqUnits/CritUnits ratio).
func (t *TileDecoder) LastStats() TileStats { return t.last }

func (t *TileDecoder) Totals() TileStats {
	tot := t.totals
	if tot.CritUnits > 0 {
		tot.Speedup = float64(tot.SeqUnits) / float64(tot.CritUnits)
	}
	return tot
}

// Decode processes one syndrome and returns the correction as edge
// indices into the graph, bit-identical to the sequential Decoder's
// output for the same defects. The returned slice is reused by the next
// call.
func (t *TileDecoder) Decode(defects []int32) []int32 {
	d := t.d
	d.reset(defects)
	t.last = TileStats{Tiles: t.nTiles}
	if len(defects) > 0 {
		for _, v := range defects {
			t.join(v)
		}
		t.grow()
		d.peel(defects)
	}
	d.Stats.NumDefects = len(defects)
	d.Stats.CorrectionEdges = len(d.correction)
	d.Stats.RootTableAccesses = d.uf.RootReads + d.uf.RootWrites
	d.Stats.SizeTableAccesses = d.uf.SizeReads + d.uf.SizeWrites

	// Rewind tile-engine state so the next decode starts pristine: the
	// shared growth mirror through the decoder's touched-edge log (every
	// edge whose growth left zero is logged exactly once), and the live
	// lists tile by tile.
	for _, e := range d.touchedEdges {
		t.growth32[e] = 0
	}
	for _, ti := range t.dirty {
		for _, v := range t.live[ti] {
			t.inLive[v] = false
		}
		t.live[ti] = t.live[ti][:0]
		t.inDirty[ti] = false
	}
	t.last.TilesTouched = len(t.dirty)
	t.dirty = t.dirty[:0]
	if t.last.CritUnits > 0 {
		t.last.Speedup = float64(t.last.SeqUnits) / float64(t.last.CritUnits)
	}
	t.totals.TilesTouched += t.last.TilesTouched
	t.totals.BoundaryMerges += t.last.BoundaryMerges
	t.totals.ReconcileRounds += t.last.ReconcileRounds
	t.totals.SeqUnits += t.last.SeqUnits
	t.totals.CritUnits += t.last.CritUnits
	t.totals.Tiles = t.nTiles
	tileObs.flush(t.shard, &t.last)
	return d.correction
}

// join adds a vertex that just entered a cluster to its tile's live list.
func (t *TileDecoder) join(v int32) {
	if v == t.bv || t.inLive[v] {
		return
	}
	t.inLive[v] = true
	ti := t.tileOf[v]
	if !t.inDirty[ti] {
		t.inDirty[ti] = true
		t.dirty = append(t.dirty, ti)
	}
	t.live[ti] = append(t.live[ti], v)
}

// grow runs the tile-parallel Gr-Gen loop: a concurrent intra-tile growth
// phase per round, then sequential canonical reconciliation, until no odd
// boundary-free cluster remains.
func (t *TileDecoder) grow() {
	d := t.d
	for len(d.active) > 0 {
		d.Stats.GrowthRounds++
		t.roundID++
		for _, r := range d.active {
			d.steps[r]++
			t.rootActive[r] = t.roundID
		}

		t.runRound()

		// Gather the per-tile logs. Tile order is fixed (join order), but
		// the split of events between tiles is scheduling-dependent, so
		// both gathered sets are sorted before any order-sensitive use.
		t.merged = t.merged[:0]
		t.touched = t.touched[:0]
		var maxOps, sumActive int64
		n := int(t.nRound)
		for i := 0; i < n; i++ {
			ti := t.dirty[i]
			t.merged = append(t.merged, t.mergedT[ti]...)
			t.touched = append(t.touched, t.touchedT[ti]...)
			t.mergedT[ti] = t.mergedT[ti][:0]
			t.touchedT[ti] = t.touchedT[ti][:0]
			if t.opsT[ti] > maxOps {
				maxOps = t.opsT[ti]
			}
			sumActive += t.activeT[ti]
		}
		recon := int64(2 * len(t.merged))
		t.last.SeqUnits += sumActive + recon
		t.last.CritUnits += maxOps + recon

		slices.Sort(t.touched)
		for _, e := range t.touched {
			d.growth[e] = 1
			d.touchedEdges = append(d.touchedEdges, e)
		}
		if len(t.merged) == 0 {
			// Merge-free round: roots, parities and boundary flags are
			// unchanged, so the active list stands exactly as it was.
			continue
		}
		t.last.ReconcileRounds++
		d.Stats.GrowthIncrements += uint64(len(t.merged))

		// Reconciliation: the canonical merge schedule. Ascending edge
		// order, the same unionRoots/treeAdj path the sequential engine
		// takes — this is what pins the spanning forest and with it the
		// correction.
		slices.Sort(t.merged)
		for _, e := range t.merged {
			t.growth32[e] = 2
			d.growth[e] = 2
			ed := &d.G.Edges[e]
			d.adjMask[ed.U] &^= t.eBitU[e]
			d.adjMask[ed.V] &^= t.eBitV[e]
			if ed.U != t.bv && ed.V != t.bv && t.tileOf[ed.U] != t.tileOf[ed.V] {
				t.last.BoundaryMerges++
			}
			ru, rv := d.find(ed.U), d.find(ed.V)
			if ru != rv {
				if d.resetStamp[ed.U] != d.resetEpoch {
					t.join(ed.U)
				}
				if d.resetStamp[ed.V] != d.resetEpoch {
					t.join(ed.V)
				}
				d.unionRoots(ru, rv)
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

// runRound executes one round's parallel phase: the dirty tiles are
// claimed off a shared cursor and grown concurrently. With one worker (or
// one dirty tile) everything runs inline.
func (t *TileDecoder) runRound() {
	n := len(t.dirty)
	t.nRound = int32(n)
	w := t.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			t.growTile(t.dirty[i])
		}
		return
	}
	t.cursor.Store(0)
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 0; k < w-1; k++ {
		go func() {
			defer wg.Done()
			t.claimTiles()
		}()
	}
	t.claimTiles()
	wg.Wait()
}

// claimTiles drains the round's tile cursor on the calling goroutine.
func (t *TileDecoder) claimTiles() {
	for {
		i := t.cursor.Add(1) - 1
		if i >= t.nRound {
			return
		}
		t.growTile(t.dirty[i])
	}
}

// growTile runs one tile's growth for the current round: every live vertex
// in an active cluster adds half an edge to each of its growable edges via
// a saturating atomic add. The add's old value classifies the event — 0
// first-touches the edge, 1 crosses it into the support — and each event
// is observed by exactly one endpoint, so the tile logs need no
// deduplication. Interior vertices (no growable edges left) are pruned.
// Nothing outside the tile's own logs, meters and live list is written
// except growth32, which is atomic.
func (t *TileDecoder) growTile(ti int16) {
	d := t.d
	lv := t.live[ti]
	n := len(lv)
	var ops, active int64
	for i := 0; i < n; {
		v := lv[i]
		m := d.adjMask[v]
		if m == 0 {
			n--
			lv[i] = lv[n]
			t.inLive[v] = false
			ops++
			continue
		}
		ops++
		if t.rootActive[d.uf.FindReadOnly(v)] != t.roundID {
			i++
			continue
		}
		active++
		adj := d.G.AdjacentEdges(v)
		for mm := m; mm != 0; mm &= mm - 1 {
			e := adj[bits.TrailingZeros16(mm)]
			ops++
			active++
			switch atomic.AddInt32(&t.growth32[e], 1) {
			case 1: // first touch: growth 0 -> 1
				t.touchedT[ti] = append(t.touchedT[ti], e)
			case 2: // crossing: the edge joins the support this round
				t.mergedT[ti] = append(t.mergedT[ti], e)
			}
			// 3 means the far endpoint crossed it earlier this same round;
			// reconciliation normalizes the mirror back to 2.
		}
		i++
	}
	t.live[ti] = lv[:n]
	t.opsT[ti] = ops
	t.activeT[ti] = active
}
