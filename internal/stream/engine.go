package stream

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"afs/internal/faults"
	"afs/internal/obs"
	"afs/internal/pool"
)

// Engine drives L independent logical-qubit streams in fixed partitions —
// the workload shape of the paper's Conjoined Decoder Architecture, where
// one decoding subsystem serves many logical qubits continuously. NewEngine
// splits the streams into Workers contiguous partitions, each with its own
// Lanes; partition 0 runs on the calling goroutine, and every other
// partition belongs to one helper goroutine for the engine's life. Every
// PushRound, RunRounds batch and Flush runs in all partitions at once: a
// partition ingests its own streams' rounds and resolves its own lane
// groups of up to 64 consecutive streams, so a stream's defect list and a
// partition's Union-Find working set stay with one worker.
//
// The round handoffs are atomic: the caller publishes a round by bumping a
// sequence number, and waits for the helpers on a countdown. Each side
// spins for a bounded time (helperSpin, callerSpin), yielding the
// processor, and then parks; a park is counted on
// afs_stream_engine_parks_total. With Workers == 1 there is no helper and
// the caller runs every round inline.
//
// Determinism: a stream's decoder, its fault channel, and its per-stream
// state advance only in the stream's partition, and committed corrections
// are collected per stream, so results are bit-identical for a fixed input
// regardless of the worker count.
//
// Engine methods must not be called concurrently with each other; the
// concurrency lives inside a round.
type Engine struct {
	decs   []*Decoder
	chans  []*faults.Channel // per-stream chaos links, nil when cfg.Chaos == nil
	errs   []error           // per-stream sticky ingestion errors
	retain [][]Correction    // per stream, when cfg.Sink == nil
	totals []uint64          // per stream committed-correction counts

	// Partition w owns streams [bounds[w], bounds[w+1]) and resolves them,
	// in lane groups of up to 64, on lanes[w] — up to 64 streams' ready
	// windows transposed into bit-plane lanes and certified word-parallel.
	// Corrections, ledgers and traces stay bit-identical to per-stream
	// decoding at fill, robust streams included: partition and group
	// boundaries affect grouping, never results.
	bounds []int
	lanes  []*Lanes

	// The operation the partitions run next. The caller writes it before
	// bumping seq; helpers read it after loading seq.
	op     engineOp
	rounds int
	events [][]int32                       // PushRound: events[i] is stream i's round
	feed   func(stream, round int) []int32 // RunRounds

	seq    atomic.Uint64  // operations published to the helpers
	left   atomic.Int32   // helpers still running the current operation
	waits  []handoff      // waits[0]: the caller; waits[w]: helper w
	joined sync.WaitGroup // the helpers, for Close
	parks  *obs.Counter   // nil when metrics are off
	closed bool
}

// EngineConfig configures a multi-stream engine.
type EngineConfig struct {
	// Streams is the number of logical-qubit streams L.
	Streams int
	// Distance, Window, Commit configure every stream's Decoder, with the
	// same defaults as New.
	Distance       int
	Window, Commit int
	// Workers is the number of stream partitions, each decoded by one
	// goroutine (the caller's for partition 0); 0 selects GOMAXPROCS. It
	// is clamped to Streams.
	Workers int
	// Sink, when non-nil, receives every committed correction instead of
	// the engine retaining it (Committed then stays empty). Calls for one
	// stream are serialized; calls for different streams may be concurrent.
	Sink func(stream int, c Correction)
	// Robust configures deadline enforcement and backpressure on every
	// stream decoder; the zero value disables both.
	Robust Robust
	// Chaos, when non-nil, injects link faults on every stream's
	// qubit→decoder channel: each stream gets its own faults.Channel seeded
	// from Chaos.Seed plus a per-stream offset, so fleet runs are
	// reproducible and streams fault independently.
	Chaos *faults.Config
	// Trace, when non-nil, receives every stream's model-time decode events
	// (windows, timeouts, shed/recover episodes), each labeled with its
	// stream index as tid — so a fixed-seed fleet exports the identical
	// trace for any worker count.
	Trace *obs.Trace
}

// engineOp is what the partitions run for one published operation.
type engineOp uint8

const (
	opRounds engineOp = iota // ingest the published rounds, resolving each
	opFlush                  // flush every stream
	opStop                   // Close: helpers exit
)

// Spin bounds of the round handoffs, chosen by the ablation in
// EXPERIMENTS.md ("Partitioned engine rounds"). A helper that finishes its
// partition spins up to helperSpin for the next round before it parks: the
// caller's own work between rounds is short, so the bound only has to
// outlast it. The caller, once done with partition 0, spins up to
// callerSpin for the helpers before it parks: a window round keeps a
// partition busy for a hundred microseconds or more, and a parked caller is
// woken on the helper's processor, which moves the partitions between
// cores. Spinners read the clock and yield the processor every spinPolls
// polls, so an engine with more workers than GOMAXPROCS still makes
// progress.
const (
	helperSpin = 50 * time.Microsecond
	callerSpin = time.Millisecond
	spinPolls  = 64
)

// handoff is one goroutine's side of a round handoff: it waits on a
// condition the other side makes true, spinning for a bounded time and
// then parking until the other side wakes it.
type handoff struct {
	parked atomic.Bool
	wake   chan struct{} // holds at most one token, so unpark never blocks
}

// await returns once ready reports true; the other side calls unpark after
// making it true. It polls ready for up to spin, then parks, counting each
// park on parks (when non-nil) in shard sh.
func (h *handoff) await(spin time.Duration, ready func() bool, parks *obs.Counter, sh int) {
	var start time.Time
	for i := 1; !ready(); i++ {
		if i%spinPolls != 0 {
			continue
		}
		if start.IsZero() {
			start = time.Now()
		} else if time.Since(start) >= spin {
			if parks != nil {
				parks.Inc(sh)
			}
			// Either ready holds by now and the park is taken back, or an
			// unpark finds parked set and sends the token. The token may
			// come from the unpark of an earlier handoff that ran late, so
			// ready is checked again after every wake-up.
			h.parked.Store(true)
			if !ready() || !h.parked.Swap(false) {
				<-h.wake
			}
			continue
		}
		runtime.Gosched()
	}
}

// unpark wakes the goroutine parked in h.await, if any. The caller must
// have made that goroutine's ready condition true first.
func (h *handoff) unpark() {
	if h.parked.Load() && h.parked.Swap(false) {
		h.wake <- struct{}{}
	}
}

// NewEngine builds the fleet of stream decoders, splits it into Workers
// contiguous partitions, and starts one helper goroutine for every
// partition but the first, which runs on the caller. Callers should Close
// the engine when done with it.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Streams < 1 {
		return nil, fmt.Errorf("stream: engine needs at least one stream")
	}
	workers := pool.Workers(cfg.Workers, cfg.Streams)
	e := &Engine{
		decs:   make([]*Decoder, cfg.Streams),
		errs:   make([]error, cfg.Streams),
		totals: make([]uint64, cfg.Streams),
		bounds: make([]int, workers+1),
		lanes:  make([]*Lanes, workers),
		waits:  make([]handoff, workers),
	}
	if cfg.Sink == nil {
		e.retain = make([][]Correction, cfg.Streams)
	}
	if om := obsSink.Load(); om != nil {
		e.parks = om.engineParks
	}
	for w := range e.lanes {
		e.lanes[w] = NewLanes()
		e.bounds[w+1] = (w + 1) * cfg.Streams / workers
	}
	for i := 0; i < cfg.Streams; i++ {
		// Deferred, with no working set: the stream's partition resolves
		// and flushes it on that partition's Lanes.
		dec, err := e.lanes[0].NewRobust(cfg.Distance, cfg.Window, cfg.Commit, cfg.Robust)
		if err != nil {
			return nil, err
		}
		if cfg.Trace != nil {
			dec.SetTrace(cfg.Trace, int32(i))
		}
		i := i
		if cfg.Sink != nil {
			dec.SetSink(func(c Correction) {
				e.totals[i]++
				cfg.Sink(i, c)
			})
		} else {
			dec.SetSink(func(c Correction) {
				e.totals[i]++
				e.retain[i] = append(e.retain[i], c)
			})
		}
		e.decs[i] = dec
	}
	if cfg.Chaos != nil {
		per := cfg.Distance * (cfg.Distance - 1)
		e.chans = make([]*faults.Channel, cfg.Streams)
		for i := range e.chans {
			c := *cfg.Chaos
			c.Seed = faults.StreamSeed(cfg.Chaos.Seed, i)
			e.chans[i] = faults.NewChannel(per, c)
		}
	}
	for w := range e.waits {
		e.waits[w].wake = make(chan struct{}, 1)
	}
	e.joined.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go e.helper(w)
	}
	return e, nil
}

// deliverRound carries one round to stream i — through its fault channel
// when chaos is configured — and ingests it. Ingestion errors stick to the
// stream and suppress its remaining rounds in the batch: a framing bug
// poisons one stream, not the fleet.
func (e *Engine) deliverRound(i int, events []int32) error {
	dec := e.decs[i]
	if e.chans != nil {
		delivered, erased, pen := e.chans[i].Transfer(events)
		dec.AddPenaltyNS(pen)
		if erased {
			dec.PushErased()
			return nil
		}
		return dec.PushLayer(delivered)
	}
	return dec.PushLayer(events)
}

// helper runs partition w for every operation the caller publishes, until
// Close. The caller waits for every helper before it publishes again, so
// each wake-up is exactly one operation.
func (e *Engine) helper(w int) {
	defer e.joined.Done()
	h := &e.waits[w]
	for seen := uint64(1); ; seen++ {
		h.await(helperSpin, func() bool { return e.seq.Load() == seen }, e.parks, w)
		if e.op == opStop {
			return
		}
		e.runPartition(w)
		if e.left.Add(-1) == 0 {
			e.waits[0].unpark()
		}
	}
}

// runPartition runs the published operation on partition w. A round batch
// goes one lane group of up to 64 consecutive streams at a time: each
// round is delivered to the group, then the windows that filled resolve
// together. Round-major order within a group keeps the feed contract
// (per-stream round order) while letting every stream in the group reach
// pending before any of them decodes.
func (e *Engine) runPartition(w int) {
	l := e.lanes[w]
	lo, hi := e.bounds[w], e.bounds[w+1]
	if e.op == opFlush {
		for i := lo; i < hi; i++ {
			l.Flush(e.decs[i])
		}
		return
	}
	for g := lo; g < hi; g += 64 {
		gh := min(g+64, hi)
		for r := 0; r < e.rounds; r++ {
			for i := g; i < gh; i++ {
				if e.errs[i] != nil {
					continue
				}
				var events []int32
				if e.feed != nil {
					events = e.feed(i, r)
				} else {
					events = e.events[i]
				}
				if err := e.deliverRound(i, events); err != nil {
					e.errs[i] = fmt.Errorf("stream %d: %w", i, err)
				}
			}
			l.Resolve(e.decs[g:gh])
		}
	}
}

// run publishes the operation the caller has stored, runs partition 0
// inline, waits for the helpers, and reports any sticky per-stream
// ingestion errors.
func (e *Engine) run() error {
	helpers := len(e.lanes) - 1
	if helpers > 0 {
		e.left.Store(int32(helpers))
		e.seq.Add(1)
		for w := 1; w <= helpers; w++ {
			e.waits[w].unpark()
		}
	}
	e.runPartition(0)
	if helpers > 0 {
		e.waits[0].await(callerSpin, func() bool { return e.left.Load() == 0 }, e.parks, 0)
	}
	e.events, e.feed = nil, nil
	return errors.Join(e.errs...)
}

var errClosed = errors.New("stream: engine used after Close")

// Streams returns the fleet size L.
func (e *Engine) Streams() int { return len(e.decs) }

// Workers returns the number of partitions actually in use.
func (e *Engine) Workers() int { return len(e.lanes) }

// Decoder exposes stream i's decoder for inspection; it must not be used
// concurrently with engine batches.
func (e *Engine) Decoder(i int) *Decoder { return e.decs[i] }

// StreamReport returns stream i's merged ledger — its decoder's runtime
// counters (windows, timeouts, degraded commits, shedding) plus its link
// channel's (injected and detected faults, retries, erasures). Like
// Decoder, it must not be called concurrently with engine batches.
func (e *Engine) StreamReport(i int) faults.Report {
	rep := e.decs[i].Report()
	if e.chans != nil {
		rep.Merge(e.chans[i].Report())
	}
	return rep
}

// FaultReport merges every stream's runtime ledger (windows, timeouts,
// degraded commits, shedding) with its link channel's ledger (injected and
// detected faults, retries, erasures) into one fleet-wide report.
func (e *Engine) FaultReport() faults.Report {
	var rep faults.Report
	for i, dec := range e.decs {
		rep.Merge(dec.Report())
		if e.chans != nil {
			rep.Merge(e.chans[i].Report())
		}
	}
	return rep
}

// RunRounds feeds `rounds` rounds to every stream, pulling each round's
// detection events from feed(stream, round). feed is invoked exactly once
// per (stream, round), in round order for any one stream, from the
// goroutine whose partition holds the stream — the same one for the
// engine's life — so a per-stream event source (for example a seeded noise
// sampler) stays deterministic for any worker count. Calls for different
// streams may be concurrent. The returned slice is consumed before the
// next feed call for the same stream. A stream whose feed yields an
// out-of-range index is poisoned (its error is returned, and re-returned
// by later batches); the other streams keep running.
func (e *Engine) RunRounds(rounds int, feed func(stream, round int) []int32) error {
	if e.closed {
		return errClosed
	}
	if rounds <= 0 {
		return nil
	}
	e.op, e.rounds, e.feed = opRounds, rounds, feed
	return e.run()
}

// PushRound feeds one round for all L streams: events[i] holds stream i's
// detection events. Like a one-round RunRounds batch, it runs in every
// partition at once, whether or not the round fills a window; events is
// not retained past the call.
func (e *Engine) PushRound(events [][]int32) error {
	if e.closed {
		return errClosed
	}
	if len(events) != len(e.decs) {
		return fmt.Errorf("stream: PushRound got %d event lists for %d streams", len(events), len(e.decs))
	}
	e.op, e.rounds, e.events = opRounds, 1, events
	return e.run()
}

// Flush ends every stream (decoding remainders as closed windows) and
// leaves the engine ready for new streams. Corrections flushed this way
// reach the sink or the retained slices like any others. Sticky ingestion
// errors are returned one last time and cleared — the flushed streams
// start clean.
func (e *Engine) Flush() error {
	if e.closed {
		return errClosed
	}
	e.op = opFlush
	err := e.run()
	for i := range e.errs {
		e.errs[i] = nil
	}
	return err
}

// Committed returns the corrections retained for stream i (engine built
// without a sink). The slice is owned by the engine.
func (e *Engine) Committed(i int) []Correction {
	if e.retain == nil {
		return nil
	}
	return e.retain[i]
}

// TotalCorrections returns the number of corrections committed across the
// fleet since construction.
func (e *Engine) TotalCorrections() uint64 {
	var sum uint64
	for _, n := range e.totals {
		sum += n
	}
	return sum
}

// Close stops the helper goroutines, parked or spinning, and waits for
// them to exit, so a closed engine leaks no goroutines. The engine must not
// be used after Close; later calls return an error. Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if len(e.lanes) > 1 {
		e.op = opStop
		e.seq.Add(1)
		for w := 1; w < len(e.waits); w++ {
			e.waits[w].unpark()
		}
		e.joined.Wait()
	}
}
