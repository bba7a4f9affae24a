package core

import (
	"math/bits"
	"sync"

	"afs/internal/lattice"
	"afs/internal/lut"
	"afs/internal/swar"
)

// LaneTriage is the bit-plane counterpart of Triage: it classifies 64
// trial lanes at once from defect planes (one uint64 per vertex, bit t =
// lane t has a defect there — see noise.PlaneGroup), using the bit-sliced
// saturating counters of internal/swar instead of per-trial index lists.
// The output is a set of lane masks the bit-plane Monte-Carlo kernel
// resolves without ever materializing a defect list for the fast-path
// lanes:
//
//   - W0 (weight 0): identity correction, parity 0 — exactly Triage's W0.
//   - W1 (weight 1): NorthParity carries the lane's side bit (parity 1 iff
//     the lone defect's strictly nearest boundary is north); TieAny flags
//     lanes whose defect sits on a SideTie vertex, which must punt exactly
//     as Triage.Classify does.
//   - Matched: the lane's distance-1 graph on its defects is a perfect
//     matching — every defect has EXACTLY one defect at L1 distance 1.
//     Parity 0 for any weight >= 2 (see below). Matched ∩ W2 is the
//     adjacent defect pair of a single interior fault (Triage's W2
//     interior rule at D == 1); Matched ∩ Heavy is the all-pairs
//     decomposition of scattered interior faults.
//   - Chain4: like Matched except exactly two defects have adjacency
//     degree 2 and those two are adjacent to each other — the distance-1
//     graph is a perfect matching plus ONE 4-defect path (the signature
//     of two faults landing edge-adjacent, the dominant conflicted shape
//     at deployment error rates). Parity 0 (see below).
//   - SinglesOK: the lane decomposes into adjacent pairs plus certified
//     isolated defects — strict-side boundary singles at fault distance
//     B <= 2, and interior duos (two isolated defects at L1 distance 2,
//     each the other's unique such partner, both at B >= 2) — with every
//     isolation certificate checked against the ring tables. Parity is
//     SingleParity's bit — the XOR of the certified singles' north-side
//     bits; pairs and duos contribute parity 0.
//   - Everything else (conflicted adjacency, deep or crowded singles,
//     W2 pairs in the punt band, W1 ties) — gathered into index lists and
//     routed through the scalar Triage / full-decoder path.
//
// Soundness of the Matched rule. "Exactly one" makes the distance-1 graph
// on the lane's defects a perfect matching: my unique neighbor's unique
// neighbor is me (on this lattice L1 distance 1 between real vertices
// always means exactly one shared edge). This is precisely the peel's
// all-pairs shape (Triage.PeelResidual: disjoint dominoes cover the
// syndrome) — every defect pairs with its unique adjacent partner (radius
// 0, parity 0 per pair: the shared edge beats any alternative, and any two
// minimal corrections differ by interior cycles), and the cross-group
// isolation invariant L1(i,j) > R(i)+R(j)+1 = 1 holds automatically
// because a cross-pair distance of 1 would raise a degree above one. Total
// parity is therefore 0 for every decoder the triage layer is sound for,
// regardless of defect count — Matched lanes with more than
// maxTriageDefects defects are resolved here even though the peel would
// have handed them to the full decoder (same failure outcome, less work;
// the lane-classification tests check both facts).
//
// Soundness of the Chain4 rule. Degrees are over the lane's distance-1
// defect graph. With no isolated defects, no degree >= 3, exactly two
// degree-2 defects, and those two adjacent, the components are forced:
// two adjacent degree-2 defects share a component whose shape around them
// is x–B–C–y with x, y at degree 1 (a fifth member would push a degree
// past 2), i.e. exactly one 4-path, and every other component is a domino
// (all remaining defects have degree 1; two 3-paths or longer chains
// would contribute the wrong degree-2 census). A 4-path A–B–C–D has a
// unique interior minimal correction — the matching {AB, CD} at weight 2;
// {BC} leaves A, D unmatched, and any correction touching a boundary
// costs at least 1 + B(A) + B(D) >= 3 — so every decoder resolves it
// interior: parity 0. Union-Find concurs: all gaps are distance 1, so the
// component merges into one even cluster in growth round one having
// absorbed nothing beyond its defects (radius 0), and peeling pairs the
// four defects through interior support edges. Cross-component isolation
// is automatic exactly as for Matched — distance 1 between components
// would change a degree. Total parity is 0 regardless of defect count,
// so (as with Matched) lanes beyond maxTriageDefects resolve here even
// though the peel would hand them to the full decoder.
//
// Soundness of the SinglesOK rule. Every isolated defect in a qualifying
// lane is certified as one of the peel's closed-form components, with the
// sparse isolation invariant L1(i,j) > R(i)+R(j)+1 checked per certificate:
//
//   - Boundary single at B <= 2 on a strict side: influence radius B,
//     parity = its side bit. Against pair members (radius 0) it needs
//     L1 > B+1, established by an empty non-isolated distance-2 ring (and,
//     for B == 2, distance-3 ring); against other isolated defects the
//     exact pairwise check below applies. A single must also have NO
//     isolated defect at distance 2 — that would be a duo candidate or
//     an isolation violation, and the peel would never certify it a lone
//     single.
//
//   - Interior duo: two isolated defects at L1 distance exactly 2, each
//     the other's UNIQUE distance-2 isolated partner in that lane (the
//     ring-2 hit counter saturates at two), both at B >= 2 — the D == 2
//     case of the peel's interior-duo rule (merge at round 2 beats any
//     boundary resolution since 2 < 2*min(B); radius 1, parity 0).
//     Against pair members a duo member needs L1 > 2, again from the
//     empty non-isolated distance-2 ring. A distance-2 isolated pair that
//     fails the duo certificate (a second candidate, or a B < 2 member)
//     marks both members bad and routes the lane to the gathered path.
//
//   - Pairwise across isolated defects, the conservative bound R = B is
//     used: any two isolated defects at L1 <= B(i)+B(j)+1 (other than a
//     certified duo pair) mark both bad. For singles this is the exact
//     peel invariant; for duo members (true radius 1) it punts slightly
//     more than the peel accepts, which is sound — bad defects route the
//     lane to the gathered path.
//
// Pair-vs-pair isolation (L1 > 1) is automatic from degree-1 adjacency.
// Singles deeper than B == 2 are excluded: their independence radius
// exceeds what the distance-3 ring can certify, so those lanes punt to
// the gathered path (where the peel re-derives the full invariant from
// coordinates). Every certificate here is strictly contained in what the
// peel accepts, so resolved lanes of weight >= 3 peel to an empty residual
// with the same parity, and resolved weight-2 lanes agree with Classify
// (test-enforced).
type LaneTriage struct {
	*laneTables

	// Per-Classify scratch: isolated-defect positions and lane masks for
	// the singles post-pass, and the degree-2 analog for the 4-path
	// post-pass. Preallocated by NewLaneTriage and truncated (never
	// reallocated) between calls so heavy batches see no regrowth churn.
	isoV []int32
	isoM []uint64
	d2V  []int32
	d2M  []uint64
	// isoPlane[v] = lanes in which v holds an ISOLATED defect, populated
	// over the touched isolated vertices for the post-pass (so ring scans
	// can split hits into isolated vs matched) and re-zeroed before
	// returning. sOK/duoC/duoP are per-iso-entry lane masks: certified
	// single, duo candidate, and certified duo member.
	isoPlane []uint64
	sOK      []uint64
	duoC     []uint64
	duoP     []uint64

	// DefV/DefW are the compact defect list of the most recent Classify or
	// ClassifySparse call: the touched vertices with a nonzero plane word,
	// in increasing vertex order, paired with those words. The kernel's
	// heavy-tail gather (GatherLanes) iterates this instead of re-scanning
	// the touched bitmap. Valid until the next classification call.
	DefV []int32
	DefW []uint64
}

// laneTables is LaneTriage's immutable per-graph table set. It is built
// once per *lattice.Graph and shared by every LaneTriage on that graph
// (see laneTablesFor), so a classifier costs only its scratch.
type laneTables struct {
	g    *lattice.Graph
	bd   *lut.Boundary
	side []uint8

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
	// distance exactly 2 (up to 18), consulted only for isolated defects.
	ring2    []int32
	ring2Off []int32
	// ring3/ring3Off: the vertices at L1 distance exactly 3 (up to 38),
	// consulted only for B == 2 single certificates.
	ring3    []int32
	ring3Off []int32
	// northBits/tieBits are per-vertex side bitmaps (bit v of word v>>6),
	// the branchless form of the side-switch on the hot path.
	northBits []uint64
	tieBits   []uint64

	// fb/upNbr/upEdge serve ClassifySparse (the streaming fast set).
	// fb[v] is FirstBoundaryEdge(v) when v sits at boundary distance 1,
	// else -1 — the spSingle emit edge. upNbr/upEdge hold, per vertex, the
	// three id-increasing lattice neighbors (+1 column, +d row, +d(d-1)
	// layer) and the connecting edge, sentinel-padded (g.V / -1) at the
	// faces — the spPair emit edge, looked up from the smaller member so
	// each pair emits exactly once.
	fb     []int32
	upNbr  []int32
	upEdge []int32
}

// LaneClasses is LaneTriage.Classify's output: per-lane class masks (all
// confined to the group's LaneMask) plus the plane-level aggregates the
// kernel folds into parities and tallies.
type LaneClasses struct {
	W0, W1, W2 uint64 // syndrome weight exactly 0 / 1 / 2
	Heavy      uint64 // syndrome weight >= 3
	// Matched: every defect has exactly one defect at L1 distance 1 (a
	// perfect matching; vacuously true for W0 lanes — mask with W2|Heavy
	// before resolving). Parity 0.
	Matched uint64
	// Chain4: adjacent pairs plus exactly one 4-defect path (see the type
	// doc). Parity 0. Disjoint from Matched (it requires two degree-2
	// defects) and from SinglesOK (no isolated defects allowed).
	Chain4 uint64
	// SinglesOK: adjacent pairs plus >= 1 certified isolated defects —
	// B <= 2 boundary singles and distance-2 interior duos (see the type
	// doc); parity = SingleParity. Disjoint from Matched (it requires at
	// least one isolated defect).
	SinglesOK uint64
	// NorthParity bit t = XOR over lane t's defects of "strictly nearest
	// boundary is north". For W1 lanes this is the closed-form parity.
	NorthParity uint64
	// SingleParity bit t = XOR over lane t's certified singles of their
	// north-side bits (duos contribute 0); meaningful only on SinglesOK
	// lanes (masked so).
	SingleParity uint64
	// TieAny bit t = lane t contains a defect on a SideTie vertex. W1
	// lanes in TieAny must punt (closed 3-D accuracy graphs never tie;
	// window graphs do near the temporal boundary).
	TieAny uint64
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
	// grow a slice: the iso/d2/defect lists are bounded by the touched
	// vertex count, for which 1/4 of the lattice is far beyond any
	// realistic batch; truncation keeps whatever larger capacity an
	// outlier forced.
	pre := g.V/4 + 16
	lt.isoV = make([]int32, 0, pre)
	lt.isoM = make([]uint64, 0, pre)
	lt.d2V = make([]int32, 0, pre)
	lt.d2M = make([]uint64, 0, pre)
	lt.DefV = make([]int32, 0, pre)
	lt.DefW = make([]uint64, 0, pre)
	lt.sOK = make([]uint64, 0, pre)
	lt.duoC = make([]uint64, 0, pre)
	lt.duoP = make([]uint64, 0, pre)
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
	lt := &laneTables{g: g, bd: bd, side: bd.Side}
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

// Classify runs the bitwise weight classification over a group's defect
// planes. planes[v] bit t = lane t has a defect at v; it must include the
// always-zero sentinel slot at index g.V (PlaneGroup provides it — the
// padded neighbor table loads through it). touched is the vertex bitmap
// of possibly-nonzero plane words (untouched vertices MUST be zero);
// laneMask confines every returned mask to the live lanes.
//
// Cost: one fused pass over the touched vertices computing the
// saturating weight counters, parity planes, and the bit-parallel
// unique-adjacent-pair matcher, plus a short post-pass over the isolated
// defects (rare) certifying the singles decomposition.
func (lt *LaneTriage) Classify(planes []uint64, touched []uint64, laneMask uint64) LaneClasses {
	var cnt, cnt2 swar.LaneCounts
	var north, tie, conflict, deg3, isoAny, s0, sOv uint64
	defects := 0
	lt.isoV = lt.isoV[:0]
	lt.isoM = lt.isoM[:0]
	lt.d2V = lt.d2V[:0]
	lt.d2M = lt.d2M[:0]
	lt.DefV = lt.DefV[:0]
	lt.DefW = lt.DefW[:0]
	nbr6 := lt.nbr6
	sr, st := int(lt.sr), int(lt.st)
	for wi, tw := range touched {
		base := wi << 6
		nb := lt.northBits[wi]
		tb := lt.tieBits[wi]
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
			cnt.Add(w)
			defects += bits.OnesCount64(w)
			north ^= w & -(nb >> uint(b) & 1)
			if tb != 0 {
				tie |= w & -(tb >> uint(b) & 1)
			}
			// Defect-neighbor count per lane, three-level saturating fold:
			// n0 = count bit 0, n1 = count reached 2, n2 = count reached 3
			// (the Chain4 class needs degree-2-exact). Interior vertices
			// (the common case away from the faces) read their six
			// neighbors at the fixed layout strides; face vertices go
			// through the sentinel-padded nbr6 table.
			var n0, n1, n2, p uint64
			if in>>uint(b)&1 != 0 {
				n0 = planes[v-st]
				p = planes[v-sr]
				n1 = n0 & p
				n0 ^= p
				p = planes[v-1]
				n2 |= n1 & p
				n1 |= n0 & p
				n0 ^= p
				p = planes[v+1]
				n2 |= n1 & p
				n1 |= n0 & p
				n0 ^= p
				p = planes[v+sr]
				n2 |= n1 & p
				n1 |= n0 & p
				n0 ^= p
				p = planes[v+st]
				n2 |= n1 & p
				n1 |= n0 & p
				n0 ^= p
			} else {
				o := 6 * v
				n0 = planes[nbr6[o]]
				p = planes[nbr6[o+1]]
				n1 = n0 & p
				n0 ^= p
				p = planes[nbr6[o+2]]
				n2 |= n1 & p
				n1 |= n0 & p
				n0 ^= p
				p = planes[nbr6[o+3]]
				n2 |= n1 & p
				n1 |= n0 & p
				n0 ^= p
				p = planes[nbr6[o+4]]
				n2 |= n1 & p
				n1 |= n0 & p
				n0 ^= p
				p = planes[nbr6[o+5]]
				n2 |= n1 & p
				n1 |= n0 & p
				n0 ^= p
			}
			conflict |= w & n1
			deg3 |= w & n2
			if d2 := w & n1 &^ n2; d2 != 0 {
				cnt2.Add(d2)
				lt.d2V = append(lt.d2V, int32(v))
				lt.d2M = append(lt.d2M, d2)
			}
			if is := w &^ (n0 | n1); is != 0 {
				isoAny |= is
				sOv |= s0 & is
				s0 ^= is
				lt.isoV = append(lt.isoV, int32(v))
				lt.isoM = append(lt.isoM, is)
			}
		}
	}
	cls := LaneClasses{
		W0:          cnt.Exactly0() & laneMask,
		W1:          cnt.Exactly1() & laneMask,
		W2:          cnt.Exactly2() & laneMask,
		Heavy:       cnt.AtLeast3() & laneMask,
		Matched:     ^(conflict | isoAny) & laneMask,
		NorthParity: north & laneMask,
		TieAny:      tie & laneMask,
		Defects:     defects,
	}
	// 4-path post-pass: a lane qualifies when it has exactly two degree-2
	// defects (cnt2), those two are lattice-adjacent, no defect reached
	// degree 3, and no defect is isolated.
	if cand := cnt2.Exactly2() &^ deg3 &^ isoAny & laneMask; cand != 0 && len(lt.d2V) >= 2 {
		var adjPair uint64
		for i := 1; i < len(lt.d2V); i++ {
			mi := lt.d2M[i]
			pi := lt.g.PackedCoords(lt.d2V[i])
			for j := 0; j < i; j++ {
				both := mi & lt.d2M[j]
				if both == 0 {
					continue
				}
				pj := lt.g.PackedCoords(lt.d2V[j])
				d := abs32(int32(pi&0xffff)-int32(pj&0xffff)) +
					abs32(int32(pi>>16&0xffff)-int32(pj>>16&0xffff)) +
					abs32(int32(pi>>32&0xffff)-int32(pj>>32&0xffff))
				if d == 1 {
					adjPair |= both
				}
			}
		}
		cls.Chain4 = cand & adjPair
	}
	if isoAny&^conflict == 0 {
		return cls
	}
	// Isolated-defect post-pass: certify each isolated defect as a B <= 2
	// strict-side single or a distance-2 interior duo member (see the type
	// doc). isoPlane lets the ring scans split hits into isolated defects
	// (potential duo partners / pairwise-checked peers) and matched ones
	// (hard radius obstructions).
	iso := lt.isoV
	lt.sOK, lt.duoC, lt.duoP = lt.sOK[:0], lt.duoC[:0], lt.duoP[:0]
	for i, v := range iso {
		lt.isoPlane[v] = lt.isoM[i]
	}
	for i, v := range iso {
		m := lt.isoM[i]
		bv := int32(lt.g.PackedCoords(v) >> 48)
		// h1/h2: lanes with >= 1 / >= 2 isolated ring-2 hits; ni2: lanes
		// with a matched (non-isolated) defect at distance 2.
		var h1, h2, ni2 uint64
		for _, u := range lt.ring2[lt.ring2Off[v]:lt.ring2Off[v+1]] {
			hit := m & lt.isoPlane[u]
			h2 |= h1 & hit
			h1 |= hit
			ni2 |= m & (planes[u] &^ lt.isoPlane[u])
		}
		var sOK, duoC uint64
		if lt.side[v] != lut.SideTie {
			if bv >= 2 {
				duoC = m & h1 &^ h2 &^ ni2
			}
			if bv <= 2 {
				sOK = m &^ h1 &^ ni2
				if bv == 2 && sOK != 0 {
					// Radius-2 single vs pair members: L1 > 3.
					var ni3 uint64
					for _, u := range lt.ring3[lt.ring3Off[v]:lt.ring3Off[v+1]] {
						ni3 |= planes[u] &^ lt.isoPlane[u]
					}
					sOK &^= ni3 & m
				}
			}
		}
		lt.sOK = append(lt.sOK, sOK)
		lt.duoC = append(lt.duoC, duoC)
		lt.duoP = append(lt.duoP, 0)
	}
	// Pairwise pass over isolated defects sharing a lane: distance-2
	// candidate pairs either certify as a duo (both sides unique, B >= 2)
	// or kill both; anything else within the conservative R = B invariant
	// slack kills both.
	for i := 1; i < len(iso); i++ {
		mi := lt.isoM[i]
		pi := lt.g.PackedCoords(iso[i])
		bi := int32(pi >> 48)
		for j := 0; j < i; j++ {
			both := mi & lt.isoM[j]
			if both == 0 {
				continue
			}
			pj := lt.g.PackedCoords(iso[j])
			d := abs32(int32(pi&0xffff)-int32(pj&0xffff)) +
				abs32(int32(pi>>16&0xffff)-int32(pj>>16&0xffff)) +
				abs32(int32(pi>>32&0xffff)-int32(pj>>32&0xffff))
			if d == 2 {
				duo := both & lt.duoC[i] & lt.duoC[j]
				lt.duoP[i] |= duo
				lt.duoP[j] |= duo
			} else if d <= bi+int32(pj>>48)+1 {
				lt.sOK[i] &^= both
				lt.sOK[j] &^= both
				lt.duoC[i] &^= both
				lt.duoC[j] &^= both
				lt.duoP[i] &^= both
				lt.duoP[j] &^= both
			}
		}
	}
	// A lane qualifies iff every isolated defect in it certified; the
	// certified singles' north bits form the lane parity (duos are 0).
	var badS, singleNorth uint64
	for i, v := range iso {
		badS |= lt.isoM[i] &^ (lt.sOK[i] | lt.duoP[i])
		if lt.side[v] == lut.SideNorth {
			singleNorth ^= lt.sOK[i]
		}
		lt.isoPlane[v] = 0
	}
	cls.SinglesOK = (s0 | sOv) &^ conflict &^ badS & laneMask
	cls.SingleParity = singleNorth & cls.SinglesOK
	return cls
}
