package stream

import (
	"fmt"
	"math"
	"math/bits"

	"afs/internal/backlog"
	"afs/internal/faults"
)

// Snapshot is the serializable dynamic state of a streaming Decoder: the
// buffered (not yet committed) layers with their erasure flags, the global
// round base, the pending deadline penalty, the backlog queue's clocks and
// episode counters, and the runtime fault ledger. Together with the static
// configuration (Distance/Window/Commit and the Robust settings, which the
// caller re-applies before Restore) it is everything a *different* decoder
// instance — on another shard, after a crash — needs to continue the stream
// byte-identically: the sliding-window decode is a pure function of this
// state and the rounds that follow.
//
// The buffered layers are captured post-carry: a committed temporal edge
// crossing the commit seam has already toggled the first buffered layer,
// so restoring the layers verbatim reproduces the exact ring content, not
// merely the raw input rounds. That is what makes a checkpoint + bounded
// round journal sufficient for replay — no unbounded history is needed.
type Snapshot struct {
	Distance int `json:"distance"`
	Window   int `json:"window"`
	Commit   int `json:"commit"`

	// Base is the global round index of buffered layer 0.
	Base int `json:"base"`
	// Layers holds the buffered layers in order, each a sorted list of
	// ancilla indices (the post-carry ring content). Always fewer than
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
// cheap. A deferred (pending) window is resolved first — through the scalar
// path, bit-identically — so the snapshot always holds fewer than Window
// layers, the invariant Restore enforces.
func (d *Decoder) Snapshot() Snapshot {
	d.resolvePending()
	s := Snapshot{
		Distance:  d.Distance,
		Window:    d.Window,
		Commit:    d.Commit,
		Base:      d.base,
		Layers:    make([][]int32, d.ringLen),
		Erased:    make([]bool, d.ringLen),
		PenaltyNS: d.penaltyNS,
		Queue:     d.queue.State(),
		Ledger:    d.rep,
	}
	for t := 0; t < d.ringLen; t++ {
		si := d.ringStart + t
		if si >= d.Window {
			si -= d.Window
		}
		s.Erased[t] = d.erased[si]
		if d.occ[si] == 0 {
			continue
		}
		wi := si * d.perWords
		layer := make([]int32, 0, d.occ[si])
		for k := 0; k < d.perWords; k++ {
			w := d.ring[wi+k]
			base := int32(k << 6)
			for w != 0 {
				layer = append(layer, base+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		s.Layers[t] = layer
	}
	return s
}

// Restore overwrites the decoder's dynamic state with a snapshot taken from
// a decoder of the same shape (Distance/Window/Commit must match; apply the
// same SetRobust configuration first — Restore rewinds the queue clocks that
// SetRobust resets). Feeding the restored decoder the same rounds the
// snapshotted one went on to receive reproduces its corrections and its
// fault ledger bit for bit. Any malformed snapshot — shape mismatch, too
// many layers, an out-of-range ancilla index, a non-finite or negative
// penalty or queue clock (NowNS, FreeNS), or episode counters no queue can
// reach (Sheds != Recoveries, plus one while Shedding) — is rejected with
// an error before any decoder state changes.
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

	for i := range d.ring {
		d.ring[i] = 0
	}
	for i := range d.occ {
		d.occ[i] = 0
		d.erased[i] = false
	}
	d.ringStart = 0
	d.ringLen = len(s.Layers)
	d.base = s.Base
	d.committed = nil
	for t, layer := range s.Layers {
		w := d.ring[t*d.perWords : (t+1)*d.perWords]
		for _, x := range layer {
			if bit := uint64(1) << (uint(x) & 63); w[x>>6]&bit == 0 {
				w[x>>6] |= bit
				d.occ[t]++
			}
		}
		d.erased[t] = s.Erased[t]
	}
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
