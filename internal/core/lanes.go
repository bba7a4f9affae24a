package core

import (
	"math/bits"
	"sync"

	"afs/internal/lattice"
	"afs/internal/lut"
	"afs/internal/swar"
)

// LaneTriage is the plane certificate: it classifies 64 lanes at once from
// defect planes (one uint64 per vertex, bit t = lane t has a defect there —
// see noise.PlaneGroup) for the Monte-Carlo kernel (Classify) and for the
// stream's lane batcher (ClassifySparse). Both entry points run one
// certify step, the scan and the single rule, which enforce the isolation
// rule of DESIGN.md ("Isolation certificate") word-parallel:
//
//   - scan folds each defect's six lattice neighbours into a saturating
//     per-lane degree (0, 1 or >= 2), refills the compact defect list
//     DefV/DefW and lists the isolated (degree-0) defects. A lane holding a
//     degree->=2 defect is conflicted. In any other lane the defects are
//     adjacent pairs (R = 0; a cross-pair distance of 1 would have raised a
//     degree) plus isolated defects.
//   - singles certifies an isolated defect as a B = 1 boundary single
//     (R = 1) iff fb[v] >= 0, no defect sits at L1 distance 2 (the ring-2
//     scan over the planes: the single–pair bound 1+0+1) and no isolated
//     defect sits at L1 distance 3 (the ring-3 scan over isoPlane: the
//     single–single bound 1+1+1). Isolation already excludes distances 0
//     and 1.
//
// A lane passes iff it holds no degree->=2 defect and every isolated
// defect passes the single rule: it is then adjacent pairs plus B = 1
// singles, each of which a full decode resolves on its own. A lane that
// fails goes to the caller's scalar path (the kernel's PeelResidual, the
// stream's full decode), so the certificate needs soundness, never
// completeness.
type LaneTriage struct {
	*laneTables

	// Per-call scratch: isolated-defect positions and lane masks for the
	// single rule. Preallocated by NewLaneTriage and truncated (never
	// reallocated) between calls so heavy batches see no regrowth churn.
	isoV []int32
	isoM []uint64
	// isoPlane[v] = lanes in which v holds an isolated defect, populated by
	// singles for its ring-3 scan and re-zeroed before it returns.
	isoPlane []uint64

	// DefV/DefW are the compact defect list of the most recent Classify or
	// ClassifySparse call: the touched vertices with a nonzero plane word,
	// in increasing vertex order, paired with those words. The kernel's
	// gather (GatherLists) and the stream's plane reset (ClearPlanes)
	// iterate this instead of re-scanning the touched bitmap. Valid until
	// the next classification call.
	DefV []int32
	DefW []uint64
}

// laneTables is LaneTriage's immutable per-graph table set. It is built
// once per *lattice.Graph and shared by every LaneTriage on that graph
// (see laneTablesFor), so a classifier costs only its scratch.
type laneTables struct {
	// nbr6 is the fixed-width coordinate-neighbor table: entries
	// [6v, 6v+6) are v's L1-distance-1 real neighbors, padded with the
	// sentinel index g.V whose plane word is always zero (PlaneGroup
	// guarantees the slot), so the per-vertex neighbor fold is six
	// unconditional loads with no length dispatch.
	nbr6 []int32
	// interior marks vertices away from every lattice face (bit v of word
	// v>>6): all six neighbors exist at the fixed layout strides ±1, ±sr,
	// ±st, so the fold skips the nbr6 line entirely for them.
	interior []uint64
	sr, st   int32
	// ring2/ring2Off is CSR over vertices: the real vertices at L1
	// distance exactly 2 (up to 18). ring3/ring3Off: those at distance
	// exactly 3 (up to 38). Both serve the single rule only.
	ring2    []int32
	ring2Off []int32
	ring3    []int32
	ring3Off []int32
	// northBits/tieBits are per-vertex side bitmaps (bit v of word v>>6),
	// the branchless form of the side-switch on the hot path.
	northBits []uint64
	tieBits   []uint64

	// fb[v] is FirstBoundaryEdge(v) when v sits at boundary distance 1,
	// else -1: the single rule's B = 1 test and a single's emit edge.
	// upNbr/upEdge hold, per vertex, the three id-increasing lattice
	// neighbors (+1 column, +d row, +d(d-1) layer) and the connecting edge,
	// sentinel-padded (g.V / -1) at the faces — a pair's emit edge, looked
	// up from the smaller member so each pair emits exactly once.
	fb     []int32
	upNbr  []int32
	upEdge []int32
}

// LaneClasses is LaneTriage.Classify's output: per-lane masks, all
// confined to the group's LaneMask, plus the defect total.
type LaneClasses struct {
	W0, W1, W2 uint64 // syndrome weight exactly 0 / 1 / 2
	Heavy      uint64 // syndrome weight >= 3
	// Certified: the lanes that pass the certificate (W0 lanes vacuously)
	// and whose singles all sit on a strict side, so the parity below is
	// the lane's correction parity.
	Certified uint64
	// SingleParity bit t = XOR over certified lane t's singles of "the
	// nearest boundary is north". A pair's connecting edge never crosses
	// the cut, so this is the whole lane's parity.
	SingleParity uint64
	// Defects is the total defect count across all lanes (the kernel's
	// MeanDefects tally).
	Defects int
}

// NewLaneTriage returns a lane classifier for g. The per-graph tables are
// built on the first call for g and shared by every later classifier on
// the same graph (and with the cached boundary tables), so a new
// classifier costs only its own scratch. Classifiers are single-owner;
// the shared tables are read-only.
func NewLaneTriage(g *lattice.Graph) *LaneTriage {
	lt := &LaneTriage{laneTables: laneTablesFor(g)}
	// Preallocate the per-Classify scratch so steady-state calls never
	// grow a slice: the iso/defect lists are bounded by the touched
	// vertex count, for which 1/4 of the lattice is far beyond any
	// realistic batch; truncation keeps whatever larger capacity an
	// outlier forced.
	pre := g.V/4 + 16
	lt.isoV = make([]int32, 0, pre)
	lt.isoM = make([]uint64, 0, pre)
	lt.DefV = make([]int32, 0, pre)
	lt.DefW = make([]uint64, 0, pre)
	lt.isoPlane = make([]uint64, g.V+1)
	return lt
}

// laneTablesFor returns g's shared lane tables, building them on first
// use. Like lut.BoundaryFor, the cache is keyed by graph identity and
// never evicts: graphs themselves are cached per shape (lattice.Cached*).
func laneTablesFor(g *lattice.Graph) *laneTables {
	if t, ok := laneTableCache.Load(g); ok {
		return t.(*laneTables)
	}
	t, _ := laneTableCache.LoadOrStore(g, newLaneTables(g))
	return t.(*laneTables)
}

var laneTableCache sync.Map // *lattice.Graph → *laneTables

func newLaneTables(g *lattice.Graph) *laneTables {
	bd := lut.BoundaryFor(g)
	lt := &laneTables{}
	words := (g.V + 63) / 64
	lt.northBits = make([]uint64, words)
	lt.tieBits = make([]uint64, words)
	lt.nbr6 = make([]int32, 6*g.V)
	lt.interior = make([]uint64, words)
	lt.fb = make([]int32, g.V)
	lt.upNbr = make([]int32, 3*g.V)
	lt.upEdge = make([]int32, 3*g.V)
	lt.ring2Off = make([]int32, g.V+1)
	lt.ring3Off = make([]int32, g.V+1)
	d := g.Distance
	lt.sr = int32(d)
	lt.st = int32(d * (d - 1))
	inBounds := func(r, c, t int) bool {
		return r >= 0 && r <= d-2 && c >= 0 && c <= d-1 && t >= 0 && t < g.Rounds
	}
	for v := int32(0); v < int32(g.V); v++ {
		switch bd.Side[v] {
		case lut.SideNorth:
			lt.northBits[v>>6] |= 1 << (uint(v) & 63)
		case lut.SideTie:
			lt.tieBits[v>>6] |= 1 << (uint(v) & 63)
		}
		r, c, t := g.VertexCoords(v)
		if r > 0 && r < d-2 && c > 0 && c < d-1 && t > 0 && t < g.Rounds-1 {
			lt.interior[v>>6] |= 1 << (uint(v) & 63)
		}
		n := 0
		add := func(u int32) {
			lt.nbr6[6*int(v)+n] = u
			n++
		}
		if t > 0 {
			add(g.VertexID(r, c, t-1))
		}
		if r > 0 {
			add(g.VertexID(r-1, c, t))
		}
		if c > 0 {
			add(g.VertexID(r, c-1, t))
		}
		if c < d-1 {
			add(g.VertexID(r, c+1, t))
		}
		if r < d-2 {
			add(g.VertexID(r+1, c, t))
		}
		if t < g.Rounds-1 {
			add(g.VertexID(r, c, t+1))
		}
		for ; n < 6; n++ {
			lt.nbr6[6*int(v)+n] = int32(g.V) // always-zero sentinel plane
		}
		lt.fb[v] = -1
		if g.PackedCoords(v)>>48 == 1 {
			lt.fb[v] = g.FirstBoundaryEdge(v)
		}
		for k := 0; k < 3; k++ {
			lt.upNbr[3*int(v)+k] = int32(g.V)
			lt.upEdge[3*int(v)+k] = -1
		}
		if c < d-1 {
			u := g.VertexID(r, c+1, t)
			lt.upNbr[3*int(v)] = u
			lt.upEdge[3*int(v)] = g.EdgeBetween(v, u)
		}
		if r < d-2 {
			u := g.VertexID(r+1, c, t)
			lt.upNbr[3*int(v)+1] = u
			lt.upEdge[3*int(v)+1] = g.EdgeBetween(v, u)
		}
		if t < g.Rounds-1 {
			u := g.VertexID(r, c, t+1)
			lt.upNbr[3*int(v)+2] = u
			lt.upEdge[3*int(v)+2] = g.EdgeBetween(v, u)
		}
		for dr := -3; dr <= 3; dr++ {
			for dc := -3; dc <= 3; dc++ {
				for dt := -3; dt <= 3; dt++ {
					if !inBounds(r+dr, c+dc, t+dt) {
						continue
					}
					switch abs32i(dr) + abs32i(dc) + abs32i(dt) {
					case 2:
						lt.ring2 = append(lt.ring2, g.VertexID(r+dr, c+dc, t+dt))
					case 3:
						lt.ring3 = append(lt.ring3, g.VertexID(r+dr, c+dc, t+dt))
					}
				}
			}
		}
		lt.ring2Off[v+1] = int32(len(lt.ring2))
		lt.ring3Off[v+1] = int32(len(lt.ring3))
	}
	return lt
}

func abs32i(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// weights is Classify's per-lane tally, accumulated inside the shared scan.
type weights struct {
	cnt     swar.LaneCounts
	defects int
}

// scan is the shared pass over the touched vertices (see the type doc). It
// returns the lanes holding a defect of degree >= 2 and the lanes holding
// an isolated defect. planes must include the always-zero sentinel slot at
// index g.V (the padded neighbor table loads through it); untouched
// vertices must be zero. A non-nil wt also accumulates Classify's weight
// counters: fused here, because a separate pass over DefV made Classify
// about 4% slower (median of 15 interleaved runs at d=11, p=1e-3, 2-vCPU
// Intel Xeon).
func (lt *LaneTriage) scan(planes, touched []uint64, wt *weights) (conflict, isoAny uint64) {
	lt.isoV = lt.isoV[:0]
	lt.isoM = lt.isoM[:0]
	lt.DefV = lt.DefV[:0]
	lt.DefW = lt.DefW[:0]
	nbr6 := lt.nbr6
	sr, st := int(lt.sr), int(lt.st)
	for wi, tw := range touched {
		base := wi << 6
		in := lt.interior[wi]
		for tw != 0 {
			b := bits.TrailingZeros64(tw)
			tw &^= 1 << uint(b)
			v := base + b
			w := planes[v]
			if w == 0 {
				continue // toggles cancelled here
			}
			lt.DefV = append(lt.DefV, int32(v))
			lt.DefW = append(lt.DefW, w)
			if wt != nil {
				wt.cnt.Add(w)
				wt.defects += bits.OnesCount64(w)
			}
			// Two-level saturating neighbor fold: n1 = "degree >= 2", and
			// with it n0 separates degree 0 from degree 1. Interior
			// vertices read their six neighbors at the fixed layout
			// strides; face vertices go through the sentinel-padded nbr6.
			var n0, n1, p uint64
			if in>>uint(b)&1 != 0 {
				n0 = planes[v-st]
				p = planes[v-sr]
				n1 = n0 & p
				n0 ^= p
				p = planes[v-1]
				n1 |= n0 & p
				n0 ^= p
				p = planes[v+1]
				n1 |= n0 & p
				n0 ^= p
				p = planes[v+sr]
				n1 |= n0 & p
				n0 ^= p
				p = planes[v+st]
				n1 |= n0 & p
				n0 ^= p
			} else {
				o := 6 * v
				n0 = planes[nbr6[o]]
				p = planes[nbr6[o+1]]
				n1 = n0 & p
				n0 ^= p
				p = planes[nbr6[o+2]]
				n1 |= n0 & p
				n0 ^= p
				p = planes[nbr6[o+3]]
				n1 |= n0 & p
				n0 ^= p
				p = planes[nbr6[o+4]]
				n1 |= n0 & p
				n0 ^= p
				p = planes[nbr6[o+5]]
				n1 |= n0 & p
				n0 ^= p
			}
			conflict |= w & n1
			if is := w &^ (n0 | n1); is != 0 {
				isoAny |= is
				lt.isoV = append(lt.isoV, int32(v))
				lt.isoM = append(lt.isoM, is)
			}
		}
	}
	return conflict, isoAny
}

// singles applies the single rule (see the type doc) to the isolated
// defects the last scan listed and returns the lanes holding one that
// fails it.
func (lt *LaneTriage) singles(planes []uint64) (bad uint64) {
	iso := lt.isoV
	for i, v := range iso {
		lt.isoPlane[v] = lt.isoM[i]
	}
	for i, v := range iso {
		m := lt.isoM[i]
		if lt.fb[v] < 0 {
			bad |= m
			continue
		}
		var hit uint64
		for _, u := range lt.ring2[lt.ring2Off[v]:lt.ring2Off[v+1]] {
			hit |= planes[u]
		}
		for _, u := range lt.ring3[lt.ring3Off[v]:lt.ring3Off[v+1]] {
			hit |= lt.isoPlane[u]
		}
		bad |= m & hit
	}
	for _, v := range iso {
		lt.isoPlane[v] = 0
	}
	return bad
}

// certify is the step both entry points share: the scan, then the single
// rule wherever a live lane still has an isolated defect to check. It
// returns the lanes that fail the certificate; lanes outside laneMask may
// be set either way.
func (lt *LaneTriage) certify(planes, touched []uint64, laneMask uint64, wt *weights) (bad uint64) {
	bad, isoAny := lt.scan(planes, touched, wt)
	if isoAny&^bad&laneMask != 0 {
		bad |= lt.singles(planes)
	}
	return bad
}

// Classify is the Monte-Carlo entry point. planes[v] bit t = lane t has a
// defect at v, with the sentinel slot at g.V; touched is the vertex bitmap
// of possibly-nonzero plane words (untouched vertices MUST be zero);
// laneMask confines every returned mask to the live lanes.
//
// On top of certify it adds the weight counters (accumulated in the scan)
// and what a parity needs: a single on a SideTie vertex has no strict
// side, so its lane is left uncertified (closed 3-D accuracy graphs never
// tie; window graphs do near the temporal boundary).
func (lt *LaneTriage) Classify(planes []uint64, touched []uint64, laneMask uint64) LaneClasses {
	var wt weights
	bad := lt.certify(planes, touched, laneMask, &wt)
	var north uint64
	for i, v := range lt.isoV {
		m := lt.isoM[i]
		north ^= m & -(lt.northBits[v>>6] >> (uint(v) & 63) & 1)
		bad |= m & -(lt.tieBits[v>>6] >> (uint(v) & 63) & 1)
	}
	cert := laneMask &^ bad
	return LaneClasses{
		W0:           wt.cnt.Exactly0() & laneMask,
		W1:           wt.cnt.Exactly1() & laneMask,
		W2:           wt.cnt.Exactly2() & laneMask,
		Heavy:        wt.cnt.AtLeast3() & laneMask,
		Certified:    cert,
		SingleParity: north & cert,
		Defects:      wt.defects,
	}
}
