package stream

import (
	"math/bits"

	"afs/internal/core"
	"afs/internal/lattice"
)

// Lanes resolves pending stream windows in cross-stream lane groups, the
// one route every sliding window takes. Code that drives many decoders
// from one goroutine (an Engine partition's lane group, or a fleet
// shard's streams within one round envelope) builds them with
// Lanes.NewRobust: a window that fills on ingest then stays pending until
// Resolve decodes it in a lane group. A solo decoder (New, NewRobust), and
// a Lanes-built one whose pending window something else reads or charges
// first (the next ingest, AddPenaltyNS, Report, Flush, Snapshot), resolves
// the window alone as a one-lane group on a Lanes of its own.
//
// A Lanes owns the Union-Find working set (one core decoder per graph) and
// lends it to every gathered lane, ineligible window and flush it drives,
// so decoding memory follows the resolvers, not the streams — the paper's
// CDA (§V) sharing a few Gr-Gen/DFS/CORR units among many logical qubits.
//
// A lane group is up to 64 pending windows sharing a (distance, window)
// shape, transposed into bit-plane defect planes — one uint64 per
// window-graph vertex, bit t = lane t's window has a defect there — and
// classified word-parallel by core.LaneTriage.ClassifySparse. A lane the
// certificate resolves whole (fast) commits its closed-form correction,
// the edges a full decode returns, with no per-stream decode at all; the
// rest (gathered) run a full core decode on the stream's buffered defect
// list, the same list the scatter pass read. Both finish through the same
// deadline charge and commit/slide code, so a window's corrections, fault
// ledger and trace do not depend on the group it lands in, or on the
// group's size and fill, robust streams included.
//
// Group-formation rules (deterministic — a pure function of the decs slice
// order and the decoders' pending flags, never of worker timing):
//
//   - only pending decoders join a group; neither the commit depth nor the
//     robust settings are part of the shape key, because classification is
//     independent of the commit depth and each lane commits against, and
//     charges the deadline model of, its own decoder;
//   - windows containing an erased round (link erasure or backpressure
//     shedding) and decoders held to the full route (a test reference)
//     go straight to a full decode without touching the planes (counted
//     laneIneligible) — erasure flags are per-stream state the planes
//     cannot carry.
//
// Not safe for concurrent use; engines hold one Lanes per partition.
type Lanes struct {
	shapes map[laneKey]*laneShape
	units  units
	om     *streamObs
	omSh   int
}

type laneKey struct {
	distance, window int
}

// laneShape is the per-(distance, window) working set: the shared window
// graph and classifier plus the transpose planes and per-lane emit
// scratch. All of it reaches a high-water capacity and is reused, so
// steady-state batches allocate nothing.
type laneShape struct {
	g       *lattice.Graph
	lt      *core.LaneTriage
	planes  []uint64 // g.V + 1: defect planes plus the always-zero sentinel
	touched []uint64
	emits   [64][]int32      // per-lane fast-path edge emits (ClassifySparse)
	prof    core.DecodeStats // a robust fast lane's clusters (commitFast)
	lanes   [64]*Decoder
}

// NewLanes returns an empty resolver; per-shape working sets build lazily
// on the first pending window of each shape.
func NewLanes() *Lanes { return newLanes(obsSink.Load(), nextObsShard()) }

// newLanes is NewLanes publishing into metrics sink om (nil: none) at
// shard hint sh.
func newLanes(om *streamObs, sh int) *Lanes {
	return &Lanes{shapes: map[laneKey]*laneShape{}, om: om, omSh: sh}
}

// NewRobust builds a deferred decoder with NewRobust's arguments and
// checks. It owns no working set: Resolve and Flush on any Lanes lend
// theirs.
func (l *Lanes) NewRobust(distance, window, commit int, r Robust) (*Decoder, error) {
	return newDecoder(distance, window, commit, r, true)
}

// Flush is d.Flush with every decode — a pending window, then the closed
// remainder — on this resolver.
func (l *Lanes) Flush(d *Decoder) []Correction { return d.flush(l) }

func (l *Lanes) shapeFor(d *Decoder) *laneShape {
	k := laneKey{distance: d.Distance, window: d.Window}
	if sh, ok := l.shapes[k]; ok {
		return sh
	}
	sh := &laneShape{
		g:       d.g,
		lt:      core.NewLaneTriage(d.g),
		planes:  make([]uint64, d.g.V+1),
		touched: make([]uint64, (d.g.V+63)/64),
	}
	l.shapes[k] = sh
	return sh
}

// Resolve decodes every pending window among decs, grouping same-shape
// pending windows into lane groups of up to 64 in slice order (skipping
// over non-pending and different-shape entries; those shapes form their
// own groups on later sweeps of the same pass). Each decoder may appear at
// most once; nil entries and decoders with nothing pending are skipped.
func (l *Lanes) Resolve(decs []*Decoder) {
	for i := 0; i < len(decs); i++ {
		d := decs[i]
		if d == nil || !d.pending {
			continue
		}
		sh := l.shapeFor(d)
		n := 0
		sh.lanes[n] = d
		n++
		for j := i + 1; j < len(decs) && n < 64; j++ {
			dj := decs[j]
			if dj == nil || !dj.pending || dj.Distance != d.Distance || dj.Window != d.Window {
				continue
			}
			sh.lanes[n] = dj
			n++
		}
		l.decodeGroup(sh, n)
	}
}

// resolveOne decodes d's pending window as a one-lane group.
func (l *Lanes) resolveOne(d *Decoder) {
	sh := l.shapeFor(d)
	sh.lanes[0] = d
	l.decodeGroup(sh, 1)
}

// decodeGroup resolves one formed group: scatter the eligible windows into
// the planes, classify, fast-commit the certified lanes, gather and
// fully decode the rest.
func (l *Lanes) decodeGroup(sh *laneShape, n int) {
	var elig uint64
	scalar := 0
	for lane := 0; lane < n; lane++ {
		d := sh.lanes[lane]
		d.pending = false
		switch {
		case d.nErased != 0 || d.fullRoute:
			// Per-stream state the planes cannot carry (erasure flags, the
			// full-route test hook): a full window decode, outside the planes.
			d.decodeWindow(&l.units, false)
			sh.lanes[lane] = nil
			scalar++
		case len(d.win) == 0:
			// The weight-0 skip, lane-side: nothing to scatter, nothing to
			// decode — commit the empty correction and slide.
			d.commitFast(nil, &sh.prof)
			sh.lanes[lane] = nil
		default:
			d.scatter(sh.planes, sh.touched, uint(lane))
			elig |= 1 << uint(lane)
		}
	}
	var fast uint64
	if elig != 0 {
		fast = sh.lt.ClassifySparse(sh.planes, sh.touched, elig, &sh.emits)
		for ew := elig; ew != 0; {
			lane := bits.TrailingZeros64(ew)
			ew &^= 1 << uint(lane)
			d := sh.lanes[lane]
			if fast>>uint(lane)&1 != 0 {
				d.commitFast(sh.emits[lane], &sh.prof)
			} else {
				d.decodeWindow(&l.units, false)
			}
			sh.lanes[lane] = nil
		}
		sh.lt.ClearPlanes(sh.planes, sh.touched)
	}
	if l.om != nil {
		l.om.laneGroups.Inc(l.omSh)
		l.om.laneWindows.Add(l.omSh, uint64(n))
		if scalar != 0 {
			l.om.laneIneligible.Add(l.omSh, uint64(scalar))
		}
		if fast != 0 {
			l.om.laneFast.Add(l.omSh, uint64(bits.OnesCount64(fast)))
		}
		if g := elig &^ fast; g != 0 {
			l.om.laneGathered.Add(l.omSh, uint64(bits.OnesCount64(g)))
		}
	}
}

// scatter ORs the window's defects into a lane group's planes at bit
// `lane`, marking each vertex in touched. The scatter is OR-only, which is
// what licenses core.LaneTriage.ClearPlanes's O(defects) cleanup.
func (d *Decoder) scatter(planes, touched []uint64, lane uint) {
	bit := uint64(1) << lane
	for _, v := range d.win {
		planes[v] |= bit
		touched[v>>6] |= 1 << (uint(v) & 63)
	}
}
