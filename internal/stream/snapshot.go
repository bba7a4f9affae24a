package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"afs/internal/backlog"
	"afs/internal/faults"
)

// Snapshot is the serializable dynamic state of a streaming Decoder: the
// buffered (not yet committed) layers with their erasure flags, the global
// round base, the pending deadline penalty, the backlog queue's clocks and
// episode counters, and the runtime fault ledger. Together with the static
// configuration (Distance/Window/Commit and the Robust settings, which the
// restoring decoder is built with) it is everything a *different* decoder
// instance — on another shard, after a crash — needs to continue the stream
// byte-identically: the sliding-window decode is a pure function of this
// state and the rounds that follow.
//
// The buffered layers are captured post-carry: a committed temporal edge
// crossing the commit seam has already toggled the first buffered layer,
// so restoring the layers verbatim reproduces the exact buffer content,
// not merely the raw input rounds. That is what makes a checkpoint +
// bounded round journal sufficient for replay — no unbounded history is
// needed.
type Snapshot struct {
	Distance int `json:"distance"`
	Window   int `json:"window"`
	Commit   int `json:"commit"`

	// Base is the global round index of buffered layer 0.
	Base int `json:"base"`
	// Layers holds the buffered layers in order, each a sorted list of
	// ancilla indices (the post-carry buffer content). Always fewer than
	// Window entries: a full window decodes immediately on ingest.
	Layers [][]int32 `json:"layers"`
	// Erased flags layers synthesized empty (link erasure or shedding).
	Erased []bool `json:"erased"`
	// PenaltyNS is injected service time charged to the next window.
	PenaltyNS float64 `json:"penalty_ns"`
	// Queue is the bounded backlog queue's dynamic state (clocks, open
	// shedding episode, episode counters).
	Queue backlog.QueueState `json:"queue"`
	// Ledger is the decoder's raw runtime fault ledger. Its BacklogSheds/
	// BacklogRecovers fields are zero here — those live in Queue and are
	// folded back in by Report(), exactly as in a live decoder.
	Ledger faults.Report `json:"ledger"`
}

// Snapshot captures the decoder's dynamic state. The returned value shares
// nothing with the decoder and may be serialized or held across further
// pushes. Cost is O(buffered defects), so checkpointing a quiet stream is
// cheap: the layers split one copy of the defect list, and an empty layer
// is nil. A deferred (pending) window is resolved first — alone, as a
// one-lane group, bit-identically — so the snapshot always holds fewer
// than Window layers, the invariant Restore enforces.
func (d *Decoder) Snapshot() Snapshot {
	d.resolvePending()
	s := Snapshot{
		Distance:  d.Distance,
		Window:    d.Window,
		Commit:    d.Commit,
		Base:      d.base,
		Layers:    make([][]int32, d.buffered),
		Erased:    make([]bool, d.buffered),
		PenaltyNS: d.penaltyNS,
		Queue:     d.queue.State(),
		Ledger:    d.rep,
	}
	copy(s.Erased, d.erased)
	ids := slices.Clone(d.win)
	for t := range s.Layers {
		off, n := int32(t*d.per), 0
		for n < len(ids) && ids[n] < off+int32(d.per) {
			ids[n] -= off
			n++
		}
		if n > 0 {
			s.Layers[t], ids = ids[:n:n], ids[n:]
		}
	}
	return s
}

// Restore overwrites the decoder's dynamic state with a snapshot taken from
// a decoder of the same shape (Distance/Window/Commit must match) and the
// same Robust settings (build it with the same NewRobust arguments — the
// snapshot carries the queue clocks, not the configuration they run
// under). Feeding the restored decoder the same rounds the
// snapshotted one went on to receive reproduces its corrections and its
// fault ledger bit for bit. A layer's indices may come in any order and
// repeat; each layer is restored sorted and deduplicated, as PushLayer
// would ingest it. Any malformed snapshot — shape mismatch, too many
// layers, an out-of-range ancilla index, a non-finite or negative penalty
// (pending or ledger total) or queue clock (NowNS, FreeNS), or episode
// counters no queue can reach (Sheds != Recoveries, plus one while
// Shedding) — is rejected with an error before any decoder state changes.
func (d *Decoder) Restore(s Snapshot) error {
	if s.Distance != d.Distance || s.Window != d.Window || s.Commit != d.Commit {
		return fmt.Errorf("stream: snapshot shape d=%d W=%d C=%d does not match decoder d=%d W=%d C=%d",
			s.Distance, s.Window, s.Commit, d.Distance, d.Window, d.Commit)
	}
	if len(s.Layers) >= d.Window {
		return fmt.Errorf("stream: snapshot holds %d layers for a %d-round window", len(s.Layers), d.Window)
	}
	if len(s.Erased) != len(s.Layers) {
		return fmt.Errorf("stream: snapshot has %d erasure flags for %d layers", len(s.Erased), len(s.Layers))
	}
	if s.Base < 0 {
		return fmt.Errorf("stream: snapshot base %d negative", s.Base)
	}
	// A corrupt checkpoint (bit flips in transit, a truncated JSON blob
	// hand-patched back together) can carry a non-finite or negative
	// penalty; accepting one would poison every subsequent deadline
	// decision. Same guard the fleet wire protocol applies on decode.
	if !finiteNonNeg(s.PenaltyNS) {
		return fmt.Errorf("stream: snapshot penalty %v not a finite non-negative duration", s.PenaltyNS)
	}
	// The ledger's penalty total only ever sums finite non-negative
	// charges; a NaN there (which the binary checkpoint encoding, unlike
	// JSON, can carry) would poison every merged fleet ledger.
	if !finiteNonNeg(s.Ledger.PenaltyNS) {
		return fmt.Errorf("stream: snapshot ledger penalty %v not a finite non-negative duration", s.Ledger.PenaltyNS)
	}
	// The queue clocks only ever advance from zero, and every shedding
	// episode opens with Sheds++ and closes with Recoveries++. A negative
	// arrival clock reads as a backlog of that many rounds (a robust stream
	// would shed nearly every round it receives), and unbalanced counters
	// fail the merged ledger's final check however the stream continues.
	q := s.Queue
	if !finiteNonNeg(q.NowNS) || !finiteNonNeg(q.FreeNS) {
		return fmt.Errorf("stream: snapshot queue clocks now=%v free=%v not finite non-negative times", q.NowNS, q.FreeNS)
	}
	open := uint64(0)
	if q.Shedding {
		open = 1
	}
	if q.Sheds != q.Recoveries+open {
		return fmt.Errorf("stream: snapshot queue has %d shed episodes, %d recoveries and shedding=%v", q.Sheds, q.Recoveries, q.Shedding)
	}
	per := int32(d.per)
	for t, layer := range s.Layers {
		for _, x := range layer {
			if x < 0 || x >= per {
				return fmt.Errorf("stream: snapshot layer %d: ancilla index %d outside [0,%d)", t, x, per)
			}
		}
	}

	d.win = d.win[:0]
	clear(d.erased)
	d.nErased = 0
	for t, layer := range s.Layers {
		d.appendLayer(t, layer)
		if s.Erased[t] {
			d.erased[t] = true
			d.nErased++
		}
	}
	d.buffered = len(s.Layers)
	// A window still pending on a deferred decoder belongs to the state
	// being overwritten: a snapshot holds fewer than Window layers, so
	// nothing is left to resolve.
	d.pending = false
	d.base = s.Base
	d.committed = nil
	d.penaltyNS = s.PenaltyNS
	d.queue.SetState(s.Queue)
	d.rep = s.Ledger
	// The snapshot stores the raw ledger; episode counters live in Queue
	// and are re-folded by Report(), so clear any copies a foreign encoder
	// may have populated to avoid double counting.
	d.rep.BacklogSheds = 0
	d.rep.BacklogRecovers = 0
	return nil
}

// finiteNonNeg reports whether x is a finite, non-negative duration or
// model time.
func finiteNonNeg(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0
}

// Binary snapshot encoding (AppendSnapshot / DecodeSnapshot), the form a
// fleet checkpoint crosses the wire in. All integers are minimal unsigned
// varints and all floats are IEEE-754 bits, little-endian:
//
//	magic    u8       snapMagic
//	shape    uvarint  Distance, Window, Commit, Base
//	layers   uvarint  layer count, then per layer:
//	           uvarint  ancilla count << 1 | erased flag
//	           uvarint  first ancilla, then each gap to the next minus one
//	penalty  f64      PenaltyNS
//	queue    f64 NowNS, f64 FreeNS, u8 Shedding, uvarint Sheds, Recoveries
//	ledger   uvarint  every faults.Report counter but the two backlog
//	                  episode counts, in declaration order; f64 PenaltyNS
//
// Layers are strictly ascending, so the gap coding has exactly one form.
// The ledger's BacklogSheds and BacklogRecovers are not carried: a
// snapshot keeps the episode counts in Queue, and Restore clears the
// ledger copies anyway. The encoding is canonical: any byte string that
// decodes re-encodes to itself, so no state has two encodings
// (FuzzSnapshotBinary checks it).
const snapMagic = 0xa5

var errSnapshotEncoding = errors.New("stream: malformed snapshot encoding")

// AppendSnapshot appends the binary encoding of s to dst and returns the
// extended slice. Layers must hold strictly ascending, non-negative
// ancilla indices, as Decoder.Snapshot produces.
func AppendSnapshot(dst []byte, s Snapshot) []byte {
	dst = append(dst, snapMagic)
	for _, x := range [...]int{s.Distance, s.Window, s.Commit, s.Base} {
		dst = binary.AppendUvarint(dst, uint64(x))
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Layers)))
	for t, layer := range s.Layers {
		head := uint64(len(layer)) << 1
		if t < len(s.Erased) && s.Erased[t] {
			head |= 1
		}
		dst = binary.AppendUvarint(dst, head)
		prev := int32(-1)
		for _, x := range layer {
			dst = binary.AppendUvarint(dst, uint64(x-prev-1))
			prev = x
		}
	}
	dst = appendF64(dst, s.PenaltyNS)
	q := s.Queue
	dst = appendF64(dst, q.NowNS)
	dst = appendF64(dst, q.FreeNS)
	shedding := byte(0)
	if q.Shedding {
		shedding = 1
	}
	dst = append(dst, shedding)
	dst = binary.AppendUvarint(dst, q.Sheds)
	dst = binary.AppendUvarint(dst, q.Recoveries)
	for _, c := range ledgerCounters(&s.Ledger) {
		dst = binary.AppendUvarint(dst, *c)
	}
	return appendF64(dst, s.Ledger.PenaltyNS)
}

// DecodeSnapshot parses an AppendSnapshot encoding. It checks structure
// only — truncation, trailing bytes, non-minimal varints, unsorted layers,
// a flag byte other than 0 or 1 — and never panics; whether the state is
// one a decoder can reach is Restore's call.
func DecodeSnapshot(p []byte) (Snapshot, error) {
	r := snapReader{p: p}
	if r.byte() != snapMagic {
		return Snapshot{}, errSnapshotEncoding
	}
	var s Snapshot
	s.Distance, s.Window, s.Commit, s.Base = r.int(), r.int(), r.int(), r.int()
	n := r.bound(r.uvarint())
	s.Layers = make([][]int32, n)
	s.Erased = make([]bool, n)
	for t := 0; t < n && r.err == nil; t++ {
		head := r.uvarint()
		s.Erased[t] = head&1 != 0
		k := r.bound(head >> 1)
		if k == 0 {
			continue
		}
		layer := make([]int32, k)
		x := int64(-1)
		for i := range layer {
			gap := r.uvarint()
			if gap > math.MaxInt32 || x+int64(gap)+1 > math.MaxInt32 {
				r.fail()
				break
			}
			x += int64(gap) + 1
			layer[i] = int32(x)
		}
		s.Layers[t] = layer
	}
	s.PenaltyNS = r.f64()
	s.Queue.NowNS, s.Queue.FreeNS = r.f64(), r.f64()
	switch r.byte() {
	case 0:
	case 1:
		s.Queue.Shedding = true
	default:
		r.fail()
	}
	s.Queue.Sheds, s.Queue.Recoveries = r.uvarint(), r.uvarint()
	for _, c := range ledgerCounters(&s.Ledger) {
		*c = r.uvarint()
	}
	s.Ledger.PenaltyNS = r.f64()
	if r.err != nil || len(r.p) != 0 {
		return Snapshot{}, errSnapshotEncoding
	}
	return s, nil
}

// ledgerCounters lists the ledger fields the binary encoding carries, in
// order: every counter but the backlog episode pair.
func ledgerCounters(l *faults.Report) [17]*uint64 {
	return [17]*uint64{
		&l.Rounds, &l.Retries,
		&l.Injected.Drops, &l.Injected.Duplicates, &l.Injected.Reorders, &l.Injected.Corruptions, &l.Injected.Stalls,
		&l.Detected, &l.Undetected,
		&l.CleanRounds, &l.RecoveredRounds, &l.CorruptRounds, &l.ErasedRounds,
		&l.Windows, &l.Timeouts, &l.DegradedCommits, &l.ShedRounds,
	}
}

func appendF64(dst []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
}

// snapReader is DecodeSnapshot's cursor. The first failure sticks: later
// reads return zero values, so the decoder checks err once at the end.
type snapReader struct {
	p   []byte
	err error
}

func (r *snapReader) fail() { r.err = errSnapshotEncoding }

func (r *snapReader) byte() byte {
	if r.err != nil || len(r.p) < 1 {
		r.fail()
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

func (r *snapReader) f64() float64 {
	if r.err != nil || len(r.p) < 8 {
		r.fail()
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.p))
	r.p = r.p[8:]
	return x
}

// uvarint reads one minimally encoded varint.
func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.p)
	if n <= 0 || n != (bits.Len64(x|1)+6)/7 {
		r.fail()
		return 0
	}
	r.p = r.p[n:]
	return x
}

func (r *snapReader) int() int {
	x := r.uvarint()
	if x > math.MaxInt {
		r.fail()
		return 0
	}
	return int(x)
}

// bound rejects a count larger than the bytes left to hold its items (one
// byte each at least), so a corrupt length cannot provoke a huge
// allocation.
func (r *snapReader) bound(x uint64) int {
	if x > uint64(len(r.p)) {
		r.fail()
		return 0
	}
	return int(x)
}
