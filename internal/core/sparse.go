package core

import "math/bits"

// The sparse shortcut (Options.SparseShortcut).
//
// At the operating points a deployed decoder sees (p ~ 1e-3), almost every
// decoding window holds zero, one, or two detection events, and almost every
// non-empty syndrome is an isolated adjacent pair (one data error or one
// measurement flip) or an isolated single one step from a boundary (a data
// error on a boundary qubit, or an event awaiting its partner beyond a
// window's temporal boundary). Running cluster growth, spanning-forest DFS
// and peeling to rediscover those corrections dominates the streaming
// decoder's run time.
//
// decodeSparse enforces the isolation rule of DESIGN.md ("Isolation
// certificate") to split the syndrome into groups that evolve exactly as
// they would alone, emits the fast groups' edges directly — a pair's
// connecting edge, a B = 1 single's lattice.FirstBoundaryEdge — and decodes
// the slow groups together through the full pipeline, producing exactly the
// full algorithm's edge set (only the order of edges may differ). Its radii
// are the rule's: 0 for a pair, 1 for a B = 1 single, min(B, D) for each
// member of a slow group of two defects at distance D, and B for any other
// slow member. The fixpoint below iterates grouping and classification
// until no cross-group pair sits within R(i)+R(j)+1. Any partition that
// satisfies the rule yields the same edges, but the partition itself is
// part of the contract: the robust deadline model charges WindowCost on
// the clusters the slow groups send to the pipeline.

// maxShortcutDefects bounds the syndromes the shortcut classifies; the
// pairwise isolation check is O(k^2) per fixpoint round, so large (rare)
// syndromes go straight to the full pipeline.
const maxShortcutDefects = 32

// MaxShortcutDefects is the sparse shortcut's syndrome-size bound, exported
// so the streaming lane batcher can pre-route windows the shortcut would
// refuse (k > bound) straight to the scalar path instead of scattering them
// into a lane group.
const MaxShortcutDefects = maxShortcutDefects

// sparseMaxFullRounds bounds the classification fixpoint's full regroup
// rounds. The two-defect distance cap can lower radii, so the fixpoint is
// not monotone on paper; real syndromes converge in one or two full rounds,
// and anything that reaches the cap falls back to the full pipeline.
const sparseMaxFullRounds = 6

const (
	spSlow   uint8 = iota // full grow/DFS/peel pipeline
	spPair                // two defects joined by one edge
	spSingle              // one defect with a direct boundary edge
)

// sparseScratch is the shortcut's preallocated working set; all slices hold
// maxShortcutDefects entries and are indexed by defect position, so a
// steady-state decode performs no allocation.
type sparseScratch struct {
	r, c, t []int32  // defect coordinates
	bd      []int32  // L1 distance to the nearest boundary
	root    []int32  // micro union-find over defect positions
	rad     []int32  // influence radius under the current classification
	kind    []uint8  // per-root group shape
	emit    []int32  // per-root fast correction edge
	mask    []uint32 // per-root member bitmask
	pmask   []uint32 // previous round's masks: cache key for kind/emit
	gd      []int32  // per-root two-defect distance cap on slow radii
	reach   []int32  // per-root min over members of t - rad
	slow    []int32  // defects routed to the full pipeline, in input order
	dirty   []int32  // defects whose radius the last classification raised
	maxRad  int32    // max rad over all defects this classification
}

func newSparseScratch() sparseScratch {
	const k = maxShortcutDefects
	return sparseScratch{
		r: make([]int32, k), c: make([]int32, k), t: make([]int32, k),
		bd: make([]int32, k), root: make([]int32, k), rad: make([]int32, k),
		kind: make([]uint8, k), emit: make([]int32, k),
		mask: make([]uint32, k), pmask: make([]uint32, k),
		gd: make([]int32, k), reach: make([]int32, k),
		slow: make([]int32, 0, k), dirty: make([]int32, 0, k),
	}
}

func (s *sparseScratch) find(i int32) int32 {
	for s.root[i] != i {
		s.root[i] = s.root[s.root[i]]
		i = s.root[i]
	}
	return i
}

func abs32(x int32) int32 {
	// Branchless: the certificates call this in O(k^2) loops over defect
	// pairs where the sign is data-random.
	m := x >> 31
	return (x ^ m) - m
}

// decodeSparse attempts the shortcut. It returns (correction, true) when
// the syndrome decomposes into independent groups at least one of which is
// fast or skippable under the horizon; otherwise (nil, false) and the
// caller must run the full pipeline on the whole syndrome. A decode that
// never enters the pipeline leaves all cluster state and the undo logs
// untouched, deferring the rewind of the previous decode to the next
// reset.
//
// Horizon skipping: a group whose every touched edge provably has
// Round >= horizon contributes nothing the caller will use, so it is
// dropped before any work happens. By the isolation rule, a group's edges
// all have Round >= min over members of (t - R), so the group is skippable
// when that bound reaches the horizon.
func (d *Decoder) decodeSparse(defects []int32, horizon int32) ([]int32, bool) {
	k := len(defects)
	if k == 0 || k > maxShortcutDefects {
		return nil, false
	}
	s := &d.sp
	s.maxRad = 0
	for i, v := range defects {
		p := d.G.PackedCoords(v)
		s.r[i] = int32(p & 0xffff)
		s.c[i] = int32((p >> 16) & 0xffff)
		s.t[i] = int32((p >> 32) & 0xffff)
		s.bd[i] = int32(p >> 48)
		s.rad[i] = 0
		s.mask[i] = 0 // invalidate the kind/emit cache from the last decode
	}
	// Fixpoint: group defects under the current radii, classify the groups,
	// and let the classification raise radii (pair members stay at 0,
	// boundary singles at 1, members of slow groups at B(i)). Crucially the
	// partition is re-derived from scratch each round rather than coarsened
	// by irreversible unions: radii start optimistic (every defect assumed a
	// pair member), so the first grouping is plain adjacency — exactly the
	// defect pairs single errors produce — and two independent measurement
	// pairs a few cells apart are recognized as separate fast pairs instead
	// of being lumped into one slow conglomerate by their members'
	// pre-classification B radii. Radii only ever grow — a pair cannot split
	// (distance 1 <= 0+0+1) and a slow group's superset can never reclassify
	// as fast — so the conflict set grows monotonically, the partition
	// monotonically coarsens, and the loop terminates, in practice in two
	// rounds. Only the terminal state is used, and it satisfies the isolation
	// invariant the soundness argument needs: no cross-group defect pair
	// within R(i)+R(j)+1, with R valid for the terminal classification.
	// Round 0: all radii are zero, so grouping is plain adjacency — exactly
	// the defect pairs isolated errors produce.
	d.sparseRegroup(k)
	if d.classifySparseGroups(defects, k) {
		// Pair-first round: union slow singletons among themselves before
		// anything else sees their radii. A slow singleton is almost always
		// one half of a separated defect pair; once the halves meet, the
		// group's two-defect distance cap (see classifySparseGroups) shrinks
		// both radii from B(i) to min(B(i), D), so the pessimistic
		// pre-pairing B radii never get to chain unrelated fast groups into
		// one slow conglomerate that the pipeline then decodes over
		// B-radius balls.
		fired := false
		for i := 0; i < k; i++ {
			ri := s.find(int32(i))
			if s.kind[ri] != spSlow || bits.OnesCount32(s.mask[ri]) != 1 {
				continue
			}
			for j := i + 1; j < k; j++ {
				rj := s.find(int32(j))
				if rj == ri || s.kind[rj] != spSlow || bits.OnesCount32(s.mask[rj]) != 1 {
					continue
				}
				dist := abs32(s.r[i]-s.r[j]) + abs32(s.c[i]-s.c[j]) + abs32(s.t[i]-s.t[j])
				if dist <= s.rad[i]+s.rad[j]+1 {
					s.root[rj] = ri
					fired = true
				}
			}
		}
		if fired {
			for i := int32(0); i < int32(k); i++ {
				s.root[i] = s.find(i)
			}
			d.classifySparseGroups(defects, k)
		}
		// Full rounds: regroup from scratch under the current radii and
		// reclassify until nothing changes. When the only state since the
		// last full regroup is a radius change (s.dirty), an incremental
		// check suffices: conflicts between two defects with unchanged radii
		// were already examined there and are intra-group, so only pairs
		// touching a dirty defect need the test — none firing means the
		// partition under the new radii is the one already classified. The
		// restricted pair round above changes the partition outside a full
		// regroup, so when it fires the first full round is unconditional.
		// The two-defect cap can lower radii, so the rounds are not
		// monotone; the cap on their number keeps termination trivial, and
		// a non-converged syndrome (never observed in practice) falls back
		// to the full pipeline — exact, just slower.
		converged := false
		for round := 0; round < sparseMaxFullRounds; round++ {
			if round > 0 || !fired {
				conflict := false
			scan:
				for _, di := range s.dirty {
					i := int(di)
					for j := 0; j < k; j++ {
						if s.root[j] == s.root[i] {
							continue
						}
						dist := abs32(s.r[i]-s.r[j]) + abs32(s.c[i]-s.c[j]) + abs32(s.t[i]-s.t[j])
						if dist <= s.rad[i]+s.rad[j]+1 {
							conflict = true
							break scan
						}
					}
				}
				if !conflict {
					converged = true
					break
				}
			}
			d.sparseRegroup(k)
			if !d.classifySparseGroups(defects, k) {
				converged = true
				break
			}
		}
		if !converged {
			return nil, false
		}
	}

	// Per-group reach bound: the earliest round any of the group's edges
	// can touch. Groups entirely at or past the horizon are skipped.
	for i := 0; i < k; i++ {
		if s.mask[i] != 0 {
			s.reach[i] = noHorizon
		}
	}
	for i := 0; i < k; i++ {
		ri := s.root[i]
		if reach := s.t[i] - s.rad[i]; reach < s.reach[ri] {
			s.reach[ri] = reach
		}
	}

	s.slow = s.slow[:0]
	fast, skipped := 0, 0
	for i := 0; i < k; i++ {
		if s.mask[i] != 0 { // root: account for its group once
			if s.reach[i] >= horizon {
				skipped++
			} else if s.kind[i] != spSlow {
				fast++
			}
		}
		ri := s.root[i]
		if s.reach[ri] < horizon && s.kind[ri] == spSlow {
			s.slow = append(s.slow, defects[i])
		}
	}
	if fast == 0 && skipped == 0 {
		return nil, false // nothing to shortcut; avoid classifying twice
	}

	if len(s.slow) > 0 {
		// Slow groups cannot interact with any fast group, so decoding them
		// together through the full pipeline reproduces exactly their share
		// of a whole-syndrome decode.
		d.reset(s.slow)
		d.growClusters()
		d.peel(s.slow)
	} else {
		// No cluster state is touched: the previous decode's undo logs stay
		// in place for a later reset, and only the outputs are refreshed.
		d.Stats = DecodeStats{Clusters: d.Stats.Clusters[:0]}
		d.correction = d.correction[:0]
		d.uf.ResetCounters()
	}
	for i := 0; i < k; i++ {
		if s.mask[i] != 0 && s.kind[i] != spSlow && s.reach[i] < horizon {
			d.correction = append(d.correction, s.emit[i])
		}
	}
	d.Stats.NumDefects = k
	d.Stats.CorrectionEdges = len(d.correction)
	d.Stats.RootTableAccesses = d.uf.RootReads + d.uf.RootWrites
	d.Stats.SizeTableAccesses = d.uf.SizeReads + d.uf.SizeWrites
	return d.correction, true
}

// sparseRegroup rebuilds the defect partition from scratch under the
// current radii and leaves the union-find flattened so every later lookup
// is a direct load.
func (d *Decoder) sparseRegroup(k int) {
	s := &d.sp
	for i := 0; i < k; i++ {
		s.root[i] = int32(i)
	}
	for i := 0; i < k; i++ {
		// Defects arrive sorted by vertex id, so t is nondecreasing: once
		// j's layer is beyond any possible conflict with i, later j are too.
		tmax := s.t[i] + s.rad[i] + s.maxRad + 1
		for j := i + 1; j < k; j++ {
			if s.t[j] > tmax {
				break
			}
			dist := abs32(s.r[i]-s.r[j]) + abs32(s.c[i]-s.c[j]) + abs32(s.t[i]-s.t[j])
			if dist <= s.rad[i]+s.rad[j]+1 {
				ri, rj := s.find(int32(i)), s.find(int32(j))
				if ri != rj {
					s.root[rj] = ri
				}
			}
		}
	}
	for i := int32(0); i < int32(k); i++ {
		s.root[i] = s.find(i)
	}
}

// classifySparseGroups recomputes, for the current grouping (roots already
// flattened), each root's shape and fast correction edge plus each defect's
// influence radius. A root whose member mask is unchanged from the previous
// round keeps its cached kind and emit edge — the shape probes
// (FirstBoundaryEdge, EdgeBetween) scan adjacency lists, and the fixpoint's
// later rounds mostly revisit unchanged groups. It reports whether any
// radius changed — false means the fixpoint has converged — and records the
// raised defects in s.dirty for the incremental convergence check.
func (d *Decoder) classifySparseGroups(defects []int32, k int) bool {
	s := &d.sp
	for i := 0; i < k; i++ {
		s.pmask[i], s.mask[i] = s.mask[i], 0
	}
	for i := 0; i < k; i++ {
		s.mask[s.root[i]] |= 1 << uint(i)
	}
	for i := 0; i < k; i++ {
		m := s.mask[i]
		if m == 0 || m == s.pmask[i] {
			continue // not a root, or cached from the previous round
		}
		kind, edge, gcap := spSlow, int32(-1), noHorizon
		switch bits.OnesCount32(m) {
		case 1:
			v := int32(bits.TrailingZeros32(m))
			if s.bd[v] == 1 {
				if e := d.G.FirstBoundaryEdge(defects[v]); e != -1 {
					kind, edge = spSingle, e
				}
			}
		case 2:
			a := int32(bits.TrailingZeros32(m))
			b := int32(bits.TrailingZeros32(m &^ (1 << uint(a))))
			dist := abs32(s.r[a]-s.r[b]) + abs32(s.c[a]-s.c[b]) + abs32(s.t[a]-s.t[b])
			if dist == 1 {
				if e := d.G.EdgeBetween(defects[a], defects[b]); e != -1 {
					kind, edge = spPair, e
				}
			} else {
				// A separated two-defect group stays slow, but its growth
				// stops within min(B, dist) of each defect (DESIGN.md's
				// slow-group radius), which keeps its conflict range far
				// below the raw B radii.
				gcap = dist
			}
		}
		s.kind[i], s.emit[i], s.gd[i] = kind, edge, gcap
	}
	s.dirty = s.dirty[:0]
	s.maxRad = 0
	for i := 0; i < k; i++ {
		var rad int32
		switch s.kind[s.root[i]] {
		case spPair:
			rad = 0
		case spSingle:
			rad = 1
		default:
			rad = s.bd[i]
			if g := s.gd[s.root[i]]; g < rad {
				rad = g
			}
		}
		if rad != s.rad[i] {
			s.rad[i] = rad
			s.dirty = append(s.dirty, int32(i))
		}
		if rad > s.maxRad {
			s.maxRad = rad
		}
	}
	return len(s.dirty) > 0
}
