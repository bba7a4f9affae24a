// Package stream implements continuous sliding-window decoding, the mode a
// deployed AFS decoder actually runs in: syndrome rounds arrive forever,
// and the decoder repeatedly decodes a W-round window, commits the
// corrections in the window's older half, and slides forward.
//
// The paper evaluates isolated logical cycles (d rounds at a time) but
// provisions the hardware for continuous operation — the Spanning Tree
// Memory's edge budget includes one temporal link per vertex, i.e. a
// temporal boundary at the top of every decoding window (see
// internal/storage and lattice.New3DWindow). This package supplies the
// control loop around that window graph:
//
//   - detector layers are appended to one sorted list of window-local
//     vertex ids (PushLayer), which is the window's defect list; sorting a
//     round's events drops its duplicates;
//   - when W layers are buffered, the window graph is decoded; clusters
//     may match forward into the temporal boundary, deferring ambiguous
//     decisions to the future;
//   - corrections in the first C layers (the commit region) are final;
//     a committed temporal edge crossing the commit seam explains half of
//     a defect pair, so the far detection event is toggled before the next
//     window sees it (an insert into or a delete from the list, in the
//     layer that becomes the next window's first);
//   - corrections in the tentative region are discarded and re-derived by
//     the next window with more context;
//   - Flush decodes whatever remains as a closed window (the stream's
//     final round is measured perfectly, as in the accuracy simulations).
//
// The steady-state path allocates nothing: the defect list and the
// Union-Find working sets reach high-water capacities, and committed
// corrections can be delivered through a sink (SetSink) instead of an
// ever-growing slice. Engine runs many Decoders — one per logical qubit —
// in fixed partitions whose Lanes lend their working sets to the streams,
// so decoding memory does not grow with them.
package stream

import (
	"fmt"
	"slices"

	"afs/internal/backlog"
	"afs/internal/core"
	"afs/internal/faults"
	"afs/internal/lattice"
	"afs/internal/microarch"
	"afs/internal/obs"
)

// Correction is one committed decoding decision in global stream
// coordinates.
type Correction struct {
	// Kind distinguishes data-qubit fixes from measurement-error flags.
	Kind lattice.EdgeKind
	// Qubit is the data qubit for spatial corrections, -1 otherwise.
	Qubit int32
	// Ancilla is the per-layer ancilla index for temporal corrections, -1
	// otherwise.
	Ancilla int32
	// Round is the global detector layer of the correction (for temporal
	// corrections, the earlier of the two layers).
	Round int
}

// Decoder is a sliding-window streaming decoder for one logical qubit and
// one error type. Not safe for concurrent use.
type Decoder struct {
	Distance int
	// Window is W, the layers decoded together (the paper's logical cycle,
	// d, by default). Commit is C, the layers finalized per slide (W/2 by
	// default; 1 <= C < W).
	Window, Commit int

	// In sliding mode commit < window always holds, so the window's
	// temporal boundary edges — deferred decisions — are never committed.
	g *lattice.Graph // shared window graph with temporal boundary

	// own is the resolver of the decodes the decoder runs alone: every
	// window of a solo decoder, each a one-lane group, but on a Lanes-built
	// decoder only a window resolved or flushed outside any Lanes, so there
	// it usually stays nil. Built on first use, like every working set.
	own *Lanes

	// The window buffer: win holds the buffered layers' detection events as
	// one strictly ascending list of window-local vertex ids (buffered
	// layer t's ancilla x is t*per + x), every id below buffered*per. It is
	// the window's defect list as both decode routes read it: a lane group
	// scatters it, a full decode takes it in place, and Flush decodes it on
	// a closed graph that numbers its vertices the same way. It grows to a
	// high-water capacity and is reused.
	per      int
	win      []int32
	buffered int

	// erased[t] flags buffered layer t as lost (link erasure or backpressure
	// shedding): the layer is synthesized empty and the next window
	// re-derives context instead of the stream stalling. nErased counts the
	// flags set.
	erased  []bool
	nErased int

	base      int // global index of buffered layer 0
	committed []Correction
	sink      func(Correction)

	// Deadline-aware degradation (NewRobust), fixed at construction. All
	// accounting runs in model nanoseconds — never wall clock — so
	// fixed-seed runs stay bit-identical across worker counts.
	robust    Robust
	robustOn  bool
	queue     backlog.BoundedQueue
	penaltyNS float64 // injected service time charged to the next window
	rep       faults.Report

	// fullRoute sends every window down the full decode: Lanes.decodeGroup
	// treats the decoder as ineligible, so no window reaches the lane
	// certificate, and decodeWindow decodes weight-0 windows too. It exists
	// only for tests, as a reference for the lane route and the weight-0
	// skip.
	fullRoute bool

	// Deferred decoding (Lanes.NewRobust, for every Engine and fleet shard
	// stream): a window that fills on ingest is not decoded immediately —
	// the decoder marks itself pending and waits for a Lanes resolver (or
	// any entry point that reads or charges its state: the next ingest,
	// AddPenaltyNS, Report, Flush, Snapshot) to resolve it. This is what
	// lets the cross-stream lane scheduler see many ready windows at once
	// instead of each decoder consuming its own the moment it fills. A
	// solo decoder marks the window pending and resolves it at once, so
	// every window takes the same lane route. Either way a window is served
	// before the stream's next round arrives, so the deadline model's queue
	// clocks see the same Arrive/Serve sequence as decoding at fill.
	deferDecode bool
	pending     bool

	// Observability (internal/obs). om is the fleet-wide metrics sink
	// captured at construction (nil when disabled), omShard the padded-slot
	// hint. The steady-state signals — rounds, windows, corrections,
	// deferred windows, and the three histograms — accumulate in plain local
	// tallies (omRounds..lhLag) and publish into the shared sink every
	// obsFlushWindows window decodes (flushObs), so the per-round and
	// per-window paths carry a couple of plain adds instead of atomics;
	// rare events (timeouts, sheds, erasures) publish immediately. trace,
	// when installed, receives model-time events labeled tid. All of it is
	// write-only from the decode path: results are bit-identical with
	// observability on or off.
	om            *streamObs
	omShard       int
	omRounds      uint64
	omWindows     uint64
	omCorrections uint64
	omDeferred    uint64
	omW0Windows   uint64
	omPending     int
	lhDefects     *obs.LocalHist
	lhCost        *obs.LocalHist
	lhLag         *obs.LocalHist
	trace         *obs.Trace
	tid           int32
}

// obsFlushWindows is how many window decodes the steady-state metric
// tallies may buffer before flushObs publishes them — a freshness bound of
// ~128 windows per stream on scraped totals (well under a millisecond of
// model time), in exchange for keeping atomics off the per-window path
// and amortizing the flush's bin scan to fractions of a nanosecond per
// round.
const obsFlushWindows = 128

// flushObs publishes the locally batched steady-state tallies into the
// shared metrics sink. Called every obsFlushWindows window decodes, on
// final windows, and by Report so ledger/counter cross-checks see
// everything the decoder has done.
func (d *Decoder) flushObs() {
	o := d.om
	if o == nil {
		return
	}
	if d.omRounds != 0 {
		o.rounds.Add(d.omShard, d.omRounds)
		d.omRounds = 0
	}
	if d.omWindows != 0 {
		o.windows.Add(d.omShard, d.omWindows)
		d.omWindows = 0
	}
	if d.omCorrections != 0 {
		o.corrections.Add(d.omShard, d.omCorrections)
		d.omCorrections = 0
	}
	if d.omDeferred != 0 {
		o.deferred.Add(d.omShard, d.omDeferred)
		d.omDeferred = 0
	}
	if d.omW0Windows != 0 {
		o.w0Windows.Add(d.omShard, d.omW0Windows)
		d.omW0Windows = 0
	}
	d.lhDefects.Flush(d.omShard)
	d.lhCost.Flush(d.omShard)
	d.lhLag.Flush(d.omShard)
	d.omPending = 0
}

// Robust configures deadline enforcement and bounded-queue backpressure for
// a streaming decoder (NewRobust). The zero value disables both. Rounds
// arrive one syndrome period apart (microarch.SyndromeRoundNS), and each
// window decode is charged under the paper's pipelined memory-access model
// (microarch.Model's zero value).
type Robust struct {
	// DeadlineNS is the per-window decode deadline in model nanoseconds
	// (the paper's CDA timeout is 350 ns inside the 400 ns round): a window
	// whose model response time — queueing behind earlier windows plus its
	// own decode cost — exceeds it is recorded as a timeout failure (Eq. 4's
	// p_tof). A window whose own decode cost exceeds it is additionally
	// committed degraded (one layer instead of Window/2); overruns inherited
	// purely from backlog are left to the queue's shedding, since shrinking
	// the commit would only raise the window arrival rate. 0 disables
	// deadline enforcement.
	DeadlineNS float64
	// QueueCap bounds the decode backlog in rounds: past it, the oldest
	// undecoded round is shed (erased) rather than letting the backlog —
	// and with it every subsequent decode's response time — diverge. 0
	// disables backpressure.
	QueueCap int
}

func (r Robust) enabled() bool { return r.DeadlineNS > 0 || r.QueueCap > 0 }

// New creates a streaming decoder without deadline enforcement or
// backpressure: NewRobust with the zero Robust.
func New(distance, window, commit int) (*Decoder, error) {
	return NewRobust(distance, window, commit, Robust{})
}

// NewRobust creates a streaming decoder whose deadline and backpressure
// settings are r for its whole life. window == 0 selects d; commit == 0
// selects window/2 (minimum 1). commit must stay below window so that a
// window's temporal-boundary matches remain revisable; a window larger
// than the whole stream yields monolithic decoding at Flush.
func NewRobust(distance, window, commit int, r Robust) (*Decoder, error) {
	return newDecoder(distance, window, commit, r, false)
}

// newDecoder builds NewRobust's decoder, or Lanes.NewRobust's if deferred.
// Neither owns a working set yet: the first decode builds it.
func newDecoder(distance, window, commit int, r Robust, deferred bool) (*Decoder, error) {
	if r.DeadlineNS < 0 || r.QueueCap < 0 {
		return nil, fmt.Errorf("stream: negative deadline or queue cap")
	}
	if distance < 2 {
		return nil, fmt.Errorf("stream: distance %d < 2", distance)
	}
	if window == 0 {
		window = distance
	}
	if window < 2 {
		return nil, fmt.Errorf("stream: window %d < 2", window)
	}
	if commit == 0 {
		commit = window / 2
		if commit < 1 {
			commit = 1
		}
	}
	if commit < 1 || commit >= window {
		return nil, fmt.Errorf("stream: commit %d outside [1, %d); committing a full window would finalize its deferred boundary matches", commit, window)
	}
	g := lattice.Cached3DWindow(distance, window)
	d := &Decoder{
		Distance:    distance,
		Window:      window,
		Commit:      commit,
		g:           g,
		per:         distance * (distance - 1),
		erased:      make([]bool, window),
		robust:      r,
		robustOn:    r.enabled(),
		queue:       backlog.BoundedQueue{ArrivalNS: microarch.SyndromeRoundNS, Cap: r.QueueCap},
		deferDecode: deferred,
		om:          obsSink.Load(),
		omShard:     nextObsShard(),
	}
	if d.om != nil {
		d.lhDefects = d.om.windowDefects.NewLocal()
		d.lhCost = d.om.windowCostNS.NewLocal()
		d.lhLag = d.om.queueLag.NewLocal()
	}
	return d, nil
}

// SetTrace installs (or, with nil, removes) a model-time event trace for
// this decoder; tid labels its events (a stream or trial id). Tracing
// never perturbs decode results — events are derived from state the
// decoder computes anyway — and emitting into the preallocated trace
// buffer does not allocate.
func (d *Decoder) SetTrace(t *obs.Trace, tid int32) {
	d.trace = t
	d.tid = tid
}

// AddPenaltyNS charges injected service time (link retries, stalls,
// reorder buffering — the chaos layer's penalties) to the next window
// decode's deadline budget. A pending window resolves first: it is already
// full, so the charge belongs to the window after it.
func (d *Decoder) AddPenaltyNS(ns float64) {
	d.resolvePending()
	if ns <= 0 {
		return
	}
	d.penaltyNS += ns
	d.rep.PenaltyNS += ns
}

// Report returns the decoder's runtime fault ledger: windows decoded,
// timeout failures, degraded commits, backpressure shedding. Link-side
// counters live in the faults.Channel that feeds the decoder; merge the two
// for the full picture.
func (d *Decoder) Report() faults.Report {
	// A pending window is a decode the stream already owes, so it is
	// charged before the ledger is read. Then any batched tallies publish,
	// so a metrics snapshot taken next to the returned ledger covers the
	// same events.
	d.resolvePending()
	d.flushObs()
	rep := d.rep
	rep.BacklogSheds = d.queue.Sheds
	rep.BacklogRecovers = d.queue.Recoveries
	return rep
}

// SetSink routes every committed correction to fn the moment it is
// finalized, instead of retaining it for Committed/Flush. With a sink
// installed the decoder holds no per-correction state, so an unbounded
// stream runs in O(Window) memory and the steady-state push path performs
// no allocation. Passing nil restores the retaining behavior.
func (d *Decoder) SetSink(fn func(Correction)) { d.sink = fn }

// Buffered returns the number of layers currently buffered (below Window
// between calls, except while a deferred window waits for its Lanes to
// resolve it).
func (d *Decoder) Buffered() int { return d.buffered }

// PushLayer feeds one round's detection events (per-layer ancilla indices,
// 0 <= index < d(d-1)). The slice is not retained; duplicate indices within
// a round are ignored (a detection event either happened or it did not).
// An index outside the ancilla range returns an error before any state
// changes — malformed input degrades instead of crashing the fleet.
// Whenever a full window is buffered, it is decoded and its commit region
// finalized.
func (d *Decoder) PushLayer(events []int32) error {
	per := int32(d.per)
	for _, x := range events {
		if x < 0 || x >= per {
			return fmt.Errorf("stream: ancilla index %d outside [0,%d)", x, per)
		}
	}
	d.ingest(events, false)
	return nil
}

// PushLayers feeds a batch of rounds in one call: rounds[r] holds the
// r-th round's detection events, exactly as PushLayer takes them. The
// whole batch is validated before any state changes — a malformed round
// anywhere rejects the batch with no layers ingested, so a caller can
// retry or drop it atomically. Window decodes fire at the same fill
// levels as under round-by-round ingestion; results are bit-identical to
// the equivalent PushLayer sequence.
func (d *Decoder) PushLayers(rounds [][]int32) error {
	per := int32(d.per)
	for r, events := range rounds {
		for _, x := range events {
			if x < 0 || x >= per {
				return fmt.Errorf("stream: round %d of batch: ancilla index %d outside [0,%d)", r, x, per)
			}
		}
	}
	for _, events := range rounds {
		d.ingest(events, false)
	}
	return nil
}

// PushErased feeds one *erased* round: a round lost on the link (past the
// retry budget) or shed by backpressure. The layer is synthesized empty and
// flagged; the window decodes around the gap and the next window re-derives
// context, so the stream keeps flowing.
func (d *Decoder) PushErased() {
	d.ingest(nil, true)
}

// resolvePending resolves a pending window alone, as a one-lane group on
// the decoder's own Lanes; a no-op unless a window is pending.
func (d *Decoder) resolvePending() {
	if d.pending {
		d.ownLanes().resolveOne(d)
	}
}

// ownLanes returns the decoder's own resolver, building it on first use.
// It publishes into the decoder's metrics sink and shard.
func (d *Decoder) ownLanes() *Lanes {
	if d.own == nil {
		d.own = newLanes(d.om, d.omShard)
	}
	return d.own
}

// ingest buffers one layer (validated events, or an erased blank) and
// decodes when the window fills.
func (d *Decoder) ingest(events []int32, erased bool) {
	// A deferred window must resolve before the next layer lands: a pending
	// decoder buffers a full window.
	d.resolvePending()
	if d.robustOn {
		sheds, recovers := d.queue.Sheds, d.queue.Recoveries
		if d.queue.Arrive() {
			d.shedOldest()
		}
		// Shedding-episode transitions happen only inside Arrive; publishing
		// them here keeps the live ledger exact without backlog depending on
		// the metrics layer.
		if d.queue.Sheds != sheds {
			if d.om != nil {
				d.om.backlogSheds.Inc(d.omShard)
			}
			if d.trace != nil {
				d.trace.Emit(obs.Event{TS: d.queue.Now(), Arg: d.queue.Lag(), TID: d.tid, Kind: obs.EvShedStart})
			}
		}
		if d.queue.Recoveries != recovers {
			if d.om != nil {
				d.om.backlogRecovers.Inc(d.omShard)
			}
			if d.trace != nil {
				d.trace.Emit(obs.Event{TS: d.queue.Now(), Arg: d.queue.Lag(), TID: d.tid, Kind: obs.EvShedEnd})
			}
		}
	}
	d.omRounds++
	if erased {
		d.erased[d.buffered] = true
		d.nErased++
		if d.om != nil {
			d.om.erasedRounds.Inc(d.omShard)
		}
		if d.trace != nil {
			ts := float64(d.base+d.buffered) * microarch.SyndromeRoundNS
			d.trace.Emit(obs.Event{TS: ts, TID: d.tid, Kind: obs.EvErasedRound})
		}
	}
	d.appendLayer(d.buffered, events)
	d.buffered++
	if d.buffered >= d.Window {
		d.pending = true
		if !d.deferDecode {
			d.resolvePending()
		}
	}
}

// appendLayer appends buffered layer t's events (in-range ancilla indices,
// any order, duplicates allowed) to win as vertex ids t*per + x. Every id
// already in win lies below t*per, so sorting and deduplicating the new
// tail keeps the whole list strictly ascending; sorted input costs one
// pass.
func (d *Decoder) appendLayer(t int, events []int32) {
	n, off := len(d.win), int32(t*d.per)
	prev, sorted := off-1, true
	for _, x := range events {
		v := off + x
		sorted = sorted && v > prev
		prev = v
		d.win = append(d.win, v)
	}
	if !sorted {
		tail := d.win[n:]
		slices.Sort(tail)
		d.win = d.win[:n+len(slices.Compact(tail))]
	}
}

// shedOldest implements the bounded queue's shed-oldest policy: the oldest
// buffered round that still carries data is erased in place, so the decode
// backlog drains by making future windows cheaper instead of diverging
// (paper §II-C — an unbounded backlog stalls the machine).
func (d *Decoder) shedOldest() {
	for t := 0; t < d.buffered; t++ {
		if d.erased[t] {
			continue
		}
		lo, _ := slices.BinarySearch(d.win, int32(t*d.per))
		hi, _ := slices.BinarySearch(d.win, int32((t+1)*d.per))
		d.win = slices.Delete(d.win, lo, hi)
		d.erased[t] = true
		d.nErased++
		d.rep.ShedRounds++
		if d.om != nil {
			d.om.shedRounds.Inc(d.omShard)
		}
		if d.trace != nil {
			d.trace.Emit(obs.Event{TS: d.queue.Now(), Arg: float64(d.base + t), TID: d.tid, Kind: obs.EvShedRound})
		}
		return
	}
}

// Flush decodes any remaining buffered layers as a closed window (the final
// round of the stream is assumed measured perfectly) and returns the
// retained committed corrections (nil when a sink is installed — the sink
// already received them). The decoder is left ready for a new stream.
func (d *Decoder) Flush() []Correction { return d.flush(d.ownLanes()) }

// flush is Flush with every decode on resolver l.
func (d *Decoder) flush(l *Lanes) []Correction {
	// A pending window is a *sliding* decode the stream still owes; resolve
	// it before the final closed-window loop, which would otherwise decode
	// it with final semantics.
	if d.pending {
		l.resolveOne(d)
	}
	for d.buffered > 0 {
		d.decodeWindow(&l.units, true)
	}
	out := d.committed
	d.committed = nil
	d.base = 0
	// A new stream starts with fresh clocks; the fault ledger is cumulative.
	// Reset closes a still-open shedding episode (counting the recovery), so
	// mirror that close into the live metrics and the trace.
	endTS := d.queue.Now()
	recovers := d.queue.Recoveries
	d.queue.Reset()
	if d.queue.Recoveries != recovers {
		if d.om != nil {
			d.om.backlogRecovers.Inc(d.omShard)
		}
		if d.trace != nil {
			d.trace.Emit(obs.Event{TS: endTS, TID: d.tid, Kind: obs.EvShedEnd})
		}
	}
	d.penaltyNS = 0
	return out
}

// Committed returns the corrections finalized and retained so far (without
// flushing). With a sink installed it is always empty.
func (d *Decoder) Committed() []Correction { return d.committed }

// emit delivers one finalized correction.
func (d *Decoder) emit(c Correction) {
	if d.sink != nil {
		d.sink(c)
		return
	}
	d.committed = append(d.committed, c)
}

// decodeWindow decodes the window in full on working set u, taking win in
// place as its defect list. In sliding mode (a window a lane group cannot
// scatter, or could not certify) the buffer holds exactly Window layers,
// decoded on the boundary window graph with only the commit region
// finalized; in final mode every buffered layer is decoded on a closed
// graph and fully committed. The decode dispatch lives here, the deadline
// accounting and the sliding commit depth in chargeWindow,
// commit/slide/observability in finishWindow.
func (d *Decoder) decodeWindow(u *units, final bool) {
	layers := d.Window
	if final {
		layers = d.buffered
	}
	// Weight-0 fast path: a window with no detection events has the empty
	// correction, and skipping Decode outright is safe because the
	// decoder's reset is deferred, not lost — an empty decode would only
	// restore the previous window's touched state and zero DecodeStats,
	// and the next non-empty decode's reset restores exactly the same
	// state from the same undo logs. The empty decode grows no cluster, so
	// its deadline charge is 0, which chargeWindow charges for a nil
	// profile: robust-mode accounting stays bit-identical too. At deployed
	// error rates most windows of a quiet logical qubit take this path.
	ndefects := len(d.win)
	w0 := ndefects == 0 && !d.fullRoute
	var g *lattice.Graph
	var corr []int32
	var stats *core.DecodeStats
	if !w0 {
		// A final window decodes on a closed graph from the process-wide
		// lattice cache; a single remaining layer has no temporal structure
		// and is decoded as a 2-D problem.
		g = d.g
		if final && layers == 1 {
			g = lattice.Cached2D(d.Distance)
		} else if final {
			g = lattice.Cached3D(d.Distance, layers)
		}
		dec := u.decoder(g)
		corr = dec.Decode(d.win)
		stats = &dec.Stats
	}
	commit, cost := layers, 0.0
	if !final {
		commit, cost = d.chargeWindow(stats)
	}
	d.finishWindow(g, corr, commit, final, w0, ndefects, cost)
}

// chargeWindow runs a sliding window through the deadline model and
// returns the commit depth it finalizes and its model cost (Commit and 0
// outside robust mode). stats holds the clusters of the window's decode,
// nil for a weight-0 window: a full decode's own, or those a fast lane's
// full decode would grow (commitFast). Either way the cost is Eqs. 2–3
// over them, so a window's charge depends on its syndrome, not on the
// route that resolved it.
func (d *Decoder) chargeWindow(stats *core.DecodeStats) (commit int, cost float64) {
	if !d.robustOn {
		return d.Commit, 0
	}
	// Charge the window against the deadline budget in model time: its
	// decode cost under the memory-access model (0 without clusters), plus
	// any injected link penalties (retries, stalls), plus queueing behind
	// earlier windows.
	if stats != nil {
		cost = microarch.Model{}.Latency(stats).Exposed
	}
	cost += d.penaltyNS
	d.penaltyNS = 0
	d.rep.Windows++
	if d.om != nil {
		d.lhCost.Observe(cost)
	}
	response := d.queue.Serve(cost)
	if d.om != nil {
		// response is exactly the post-serve backlog in ns (queueing plus
		// own service), so the lag in arrival periods is one multiply — no
		// second queue call, no division.
		d.lhLag.Observe(response * (1 / microarch.SyndromeRoundNS))
	}
	commit = d.Commit
	if d.robust.DeadlineNS > 0 && response > d.robust.DeadlineNS {
		// Deadline overrun: a timeout failure under Eq. 4 (p_tof). winTS
		// is the window's model-time anchor (its first buffered layer's
		// arrival slot).
		winTS := float64(d.base) * microarch.SyndromeRoundNS
		d.rep.Timeouts++
		if d.om != nil {
			d.om.timeouts.Inc(d.omShard)
		}
		if d.trace != nil {
			d.trace.Emit(obs.Event{TS: winTS, Arg: response, TID: d.tid, Kind: obs.EvTimeout})
		}
		if cost > d.robust.DeadlineNS {
			// Degrade only when this window's own decode is over budget:
			// finalize the oldest layer and defer the rest to the next
			// window, which re-decodes them with more context. The
			// window's correction holds every edge of a full decode (a
			// fast lane's emits are the same edges), so its Round < 1
			// subset IS the one-layer commit — the commit loop's round
			// filter extracts it with no second decode. When only inherited
			// backlog pushed the response over, shrinking the commit would
			// raise the window arrival rate and deepen the very backlog it
			// inherited (a metastable cascade); the bounded queue's
			// shedding is the pressure valve there.
			d.rep.DegradedCommits++
			commit = 1
			if d.om != nil {
				d.om.degraded.Inc(d.omShard)
			}
			if d.trace != nil {
				d.trace.Emit(obs.Event{TS: winTS, Arg: cost, TID: d.tid, Kind: obs.EvDegraded})
			}
		}
	}
	return commit, cost
}

// commitFast finishes a pending sliding window the lane certificate
// resolved whole: corr holds its emit edges (window-graph edge ids), the
// edges a full decode of the window returns (core's
// TestClassifySparseMatchesFullDecode); an empty lane is the weight-0 skip.
// A robust decoder is charged the clusters that full decode would grow
// (core.LaneClusters), built into prof, scratch the caller lends; other
// decoders build nothing. corr lists every edge regardless of the commit
// depth; the commit loop's round filter keeps the commit region, at the
// normal depth and at a degraded one alike.
func (d *Decoder) commitFast(corr []int32, prof *core.DecodeStats) {
	if d.robustOn {
		prof.Clusters = core.LaneClusters(d.g, corr, prof.Clusters[:0])
	}
	commit, cost := d.chargeWindow(prof)
	ndefects := len(d.win)
	d.finishWindow(d.g, corr, commit, false, ndefects == 0, ndefects, cost)
}

// finishWindow commits a decoded window and slides the buffer: the commit
// loop with its seam carry, the steady-state observability tallies, and
// the slide. g/corr are the decode's graph and correction (g may be nil
// when corr is empty), ndefects the window's defect count, cost the robust
// model charge (0 otherwise).
func (d *Decoder) finishWindow(g *lattice.Graph, corr []int32, commit int, final, w0 bool, ndefects int, cost float64) {
	// winTS is the window's model-time anchor (its first buffered layer's
	// arrival slot) for the trace; cost stays 0 outside deadline mode.
	winTS := float64(d.base) * microarch.SyndromeRoundNS

	// Commit region: record final corrections; a temporal edge crossing the
	// seam toggles an event in layer `commit`, which the slide below makes
	// the next window's first layer.
	committed := 0
	for _, ei := range corr {
		e := &g.Edges[ei]
		round := int(e.Round)
		if round >= commit {
			continue
		}
		committed++
		switch e.Kind {
		case lattice.Spatial:
			d.emit(Correction{
				Kind: lattice.Spatial, Qubit: e.Qubit, Ancilla: -1,
				Round: d.base + round,
			})
		case lattice.Temporal:
			x := g.AncillaIndex(e.U)
			d.emit(Correction{
				Kind: lattice.Temporal, Qubit: -1, Ancilla: x,
				Round: d.base + round,
			})
			if round == commit-1 && !g.IsBoundary(e.V) {
				// The edge's far end lies in the tentative region: the
				// committed measurement-error decision explains the event
				// at layer `commit`, so cancel it there: delete the event,
				// or insert it if the layer did not hold it.
				v := int32(commit*d.per) + x
				if i, ok := slices.BinarySearch(d.win, v); ok {
					d.win = slices.Delete(d.win, i, i+1)
				} else {
					d.win = slices.Insert(d.win, i, v)
				}
			}
		}
	}

	// Tally the window locally: the decode itself and its commit outcome
	// (a window with defects but no correction below the commit depth
	// defers every decision to the next window), publishing to the shared
	// sink every obsFlushWindows decodes and on final windows.
	if d.om != nil {
		d.omWindows++
		if w0 {
			d.omW0Windows++
		}
		d.lhDefects.Observe(float64(ndefects))
		d.omCorrections += uint64(committed)
		if committed == 0 && ndefects > 0 {
			d.omDeferred++
		}
		d.omPending++
		if d.omPending >= obsFlushWindows || final {
			d.flushObs()
		}
	}
	if d.trace != nil {
		d.trace.Emit(obs.Event{TS: winTS, Dur: cost, Arg: float64(ndefects), TID: d.tid, Kind: obs.EvWindow})
	}

	// Slide: drop the committed layers' events, renumber the rest from
	// layer 0 in one pass (a handful of ids at deployed rates), and shift
	// any erasure flags down with them.
	cut, n := int32(commit*d.per), 0
	for _, v := range d.win {
		if v >= cut {
			d.win[n] = v - cut
			n++
		}
	}
	d.win = d.win[:n]
	if d.nErased != 0 {
		for _, e := range d.erased[:commit] {
			if e {
				d.nErased--
			}
		}
		copy(d.erased, d.erased[commit:d.buffered])
		clear(d.erased[d.buffered-commit : d.buffered])
	}
	d.buffered -= commit
	d.base += commit
}

// coreOpts is every core decoder's option set. The deadline model needs
// per-cluster profiles (ClusterStats: one append per cluster) but none of
// the per-access counters, whose full profile would cost ~25% throughput;
// other streams and final windows never read Stats.
var coreOpts = core.Options{LeanStats: true, ClusterStats: true}

// units is a Union-Find working set: one core decoder per graph (cached, so
// the pointer is the key; a handful per set), built on first use. Sharing
// one among streams never shows in a result, since Decode is a pure
// function of the defects (core's TestDecoderReuseIsDeterministic).
type units []*core.Decoder

func (u *units) decoder(g *lattice.Graph) *core.Decoder {
	for _, dec := range *u {
		if dec.G == g {
			return dec
		}
	}
	dec := core.NewDecoder(g, coreOpts)
	*u = append(*u, dec)
	return dec
}
