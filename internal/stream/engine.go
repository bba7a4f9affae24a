package stream

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"afs/internal/faults"
	"afs/internal/obs"
)

// Engine drives L independent logical-qubit streams over a persistent
// worker pool — the workload shape of the paper's Conjoined Decoder
// Architecture, where one decoding subsystem serves many logical qubits
// continuously. Ingestion is round-batched: each batch feeds the same
// number of rounds to every stream, and workers claim chunks of up to 64
// consecutive streams off a shared counter (work stealing, as in the
// Monte-Carlo engine), so a chunk whose windows decode slowly never stalls
// the others.
//
// Determinism: a stream's decoder, its fault channel, and its per-stream
// state advance only under the worker that claimed it for the batch, and
// committed corrections are collected per stream, so results are
// bit-identical for a fixed input regardless of the worker count.
//
// Engine methods must not be called concurrently with each other; the
// concurrency lives inside a batch.
type Engine struct {
	decs   []*Decoder
	chans  []*faults.Channel // per-stream chaos links, nil when cfg.Chaos == nil
	errs   []error           // per-stream sticky ingestion errors
	retain [][]Correction    // per stream, when cfg.Sink == nil
	totals []uint64          // per stream committed-correction counts

	robust  bool // any stream may desync its fill level (degraded commits)
	workers int
	jobs    []chan engineJob
	wg      sync.WaitGroup
	done    sync.WaitGroup
	next    atomic.Int64
	closed  bool

	// Lane batching: round jobs claim fixed chunks of up to 64 consecutive
	// streams instead of single streams, deliver each round chunk-wide, and
	// resolve the deferred windows through the worker's Lanes — up to 64
	// streams' ready windows transposed into bit-plane lanes and certified
	// word-parallel. Corrections, ledgers and traces stay bit-identical to
	// per-stream decoding at fill, robust streams included — chunk
	// boundaries and worker count affect grouping, never results.
	chunk int
	lanes []*Lanes
}

// EngineConfig configures a multi-stream engine.
type EngineConfig struct {
	// Streams is the number of logical-qubit streams L.
	Streams int
	// Distance, Window, Commit configure every stream's Decoder, with the
	// same defaults as New.
	Distance       int
	Window, Commit int
	// Workers bounds decode parallelism; 0 selects GOMAXPROCS. It is
	// clamped to Streams.
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

// engineJob is one round batch (or a flush) broadcast to every worker.
type engineJob struct {
	rounds int
	feed   func(stream, round int) []int32
	flush  bool
}

// NewEngine builds the fleet of stream decoders and starts the worker
// pool. Callers should Close the engine when done with it.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Streams < 1 {
		return nil, fmt.Errorf("stream: engine needs at least one stream")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Streams {
		workers = cfg.Streams
	}
	e := &Engine{
		decs:    make([]*Decoder, cfg.Streams),
		errs:    make([]error, cfg.Streams),
		totals:  make([]uint64, cfg.Streams),
		robust:  cfg.Robust.enabled(),
		workers: workers,
		lanes:   make([]*Lanes, workers),
	}
	if cfg.Sink == nil {
		e.retain = make([][]Correction, cfg.Streams)
	}
	for w := range e.lanes {
		e.lanes[w] = NewLanes()
	}
	for i := 0; i < cfg.Streams; i++ {
		// Deferred, with no working set: whichever worker claims a stream
		// resolves and flushes it on that worker's Lanes.
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
	// Chunks of up to 64 streams: one lane group per chunk per decode
	// round. ceil(S/workers) keeps every worker busy on small fleets; the
	// 64-lane cap bounds a group to one plane word.
	e.chunk = (cfg.Streams + workers - 1) / workers
	if e.chunk > 64 {
		e.chunk = 64
	}
	e.jobs = make([]chan engineJob, workers)
	e.done.Add(workers)
	for w := 0; w < workers; w++ {
		ch := make(chan engineJob, 1)
		e.jobs[w] = ch
		go e.worker(w, ch)
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

func (e *Engine) worker(w int, ch chan engineJob) {
	defer e.done.Done()
	l := e.lanes[w]
	for job := range ch {
		if job.flush {
			// Flush resolves any pending window as a one-lane group before
			// closing the stream, so flushes claim single streams.
			for {
				i := int(e.next.Add(1) - 1)
				if i >= len(e.decs) {
					break
				}
				l.Flush(e.decs[i])
			}
		} else {
			e.laneRounds(l, job)
		}
		e.wg.Done()
	}
}

// laneRounds is the round job: workers claim whole chunks of
// consecutive streams, deliver each round to the chunk, and resolve the
// windows that filled as one lane group per chunk. Round-major order keeps
// the feed contract (per-stream round order, one owner per stream per
// batch) while letting every stream in the chunk reach pending before any
// of them decodes.
func (e *Engine) laneRounds(l *Lanes, job engineJob) {
	for {
		lo := int(e.next.Add(int64(e.chunk))) - e.chunk
		if lo >= len(e.decs) {
			return
		}
		hi := lo + e.chunk
		if hi > len(e.decs) {
			hi = len(e.decs)
		}
		chunk := e.decs[lo:hi]
		for r := 0; r < job.rounds; r++ {
			for i := lo; i < hi; i++ {
				if e.errs[i] != nil {
					continue
				}
				if err := e.deliverRound(i, job.feed(i, r)); err != nil {
					e.errs[i] = fmt.Errorf("stream %d: %w", i, err)
				}
			}
			l.Resolve(chunk)
		}
	}
}

// dispatch runs one job across the pool, waits for the barrier, and
// reports any sticky per-stream ingestion errors.
func (e *Engine) dispatch(job engineJob) error {
	if e.closed {
		return errors.New("stream: engine used after Close")
	}
	e.next.Store(0)
	e.wg.Add(e.workers)
	for _, ch := range e.jobs {
		ch <- job
	}
	e.wg.Wait()
	return errors.Join(e.errs...)
}

// Streams returns the fleet size L.
func (e *Engine) Streams() int { return len(e.decs) }

// Workers returns the pool size actually in use.
func (e *Engine) Workers() int { return e.workers }

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
// per (stream, round), in round order for any one stream, from the worker
// that owns the stream for this batch — so a per-stream event source (for
// example a seeded noise sampler) stays deterministic for any worker
// count. The returned slice is consumed before the next feed call for the
// same stream. A stream whose feed yields an out-of-range index is
// poisoned (its error is returned, and re-returned by later batches); the
// other streams keep running.
func (e *Engine) RunRounds(rounds int, feed func(stream, round int) []int32) error {
	if rounds <= 0 {
		if e.closed {
			return errors.New("stream: engine used after Close")
		}
		return nil
	}
	return e.dispatch(engineJob{rounds: rounds, feed: feed})
}

// PushRound feeds one round for all L streams: events[i] holds stream i's
// detection events. Rounds that cannot trigger a window decode are
// ingested serially — bit-sets into the ring, far cheaper than a pool
// barrier — while decode rounds fan the fleet out across the workers.
func (e *Engine) PushRound(events [][]int32) error {
	if e.closed {
		return errors.New("stream: engine used after Close")
	}
	if len(events) != len(e.decs) {
		return fmt.Errorf("stream: PushRound got %d event lists for %d streams", len(events), len(e.decs))
	}
	// Without robust degradation all streams ingest in lockstep, so stream
	// 0's fill level is the fleet's: decide once whether this round
	// completes a window. A degraded (deadline-overrun) commit finalizes
	// fewer layers and desyncs fill levels, and a poisoned stream 0 stops
	// ingesting, so those engines scan. A round that fills a window must
	// not take the serial path: nothing there resolves the deferred decode
	// until that stream's next round.
	willDecode := false
	if e.robust || e.errs[0] != nil {
		for _, dec := range e.decs {
			if dec.Buffered()+1 >= dec.Window {
				willDecode = true
				break
			}
		}
	} else {
		willDecode = e.decs[0].Buffered()+1 >= e.decs[0].Window
	}
	if !willDecode {
		for i := range e.decs {
			if e.errs[i] != nil {
				continue
			}
			if err := e.deliverRound(i, events[i]); err != nil {
				e.errs[i] = fmt.Errorf("stream %d: %w", i, err)
			}
		}
		return errors.Join(e.errs...)
	}
	return e.dispatch(engineJob{rounds: 1, feed: func(stream, _ int) []int32 {
		return events[stream]
	}})
}

// Flush ends every stream (decoding remainders as closed windows) and
// leaves the engine ready for new streams. Corrections flushed this way
// reach the sink or the retained slices like any others. Sticky ingestion
// errors are returned one last time and cleared — the flushed streams
// start clean.
func (e *Engine) Flush() error {
	err := e.dispatch(engineJob{flush: true})
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

// Close shuts the worker pool down and waits for the workers to exit, so
// a closed engine leaks no goroutines. The engine must not be used after
// Close; Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, ch := range e.jobs {
		close(ch)
	}
	e.done.Wait()
}
