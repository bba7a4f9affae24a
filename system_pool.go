package afs

import (
	"fmt"
	"sync"

	"afs/internal/noise"
	"afs/internal/pool"
	"afs/internal/stream"
)

// System manages the decoding subsystem of an FTQC with many logical
// qubits: a decoder pair per qubit, concurrent per-cycle decoding through
// the chunk pool, and aggregate accuracy/latency accounting. It is the
// library-level counterpart of the paper's system studies (§V): the models
// in MemoryPerQubit/SystemMemory size the hardware, and System actually
// runs the fleet in simulation.
type System struct {
	qubits   []*LogicalQubit
	samplers []*QubitSampler
	workers  int

	// Stats accumulate across RunCycles calls.
	Cycles         uint64
	LogicalErrors  uint64
	maxLatencyNS   float64
	totalLatencyNS float64
	mu             sync.Mutex
}

// SystemConfig configures a System.
type SystemConfig struct {
	// LogicalQubits is the fleet size L.
	LogicalQubits int
	// Distance is the code distance d.
	Distance int
	// P is the physical error rate of every qubit.
	P float64
	// Seed makes the whole fleet reproducible.
	Seed uint64
	// Workers bounds decode parallelism; 0 selects GOMAXPROCS.
	Workers int
	// EngineOptions apply to every decoder.
	EngineOptions []Option
}

// NewSystem builds the fleet.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.LogicalQubits < 1 {
		return nil, fmt.Errorf("afs: system needs at least one logical qubit")
	}
	if cfg.Distance < 2 {
		return nil, fmt.Errorf("afs: distance %d < 2", cfg.Distance)
	}
	if err := checkRate(cfg.P); err != nil {
		return nil, err
	}
	s := &System{workers: cfg.Workers}
	for i := 0; i < cfg.LogicalQubits; i++ {
		q := NewLogicalQubit(cfg.Distance, cfg.EngineOptions...)
		s.qubits = append(s.qubits, q)
		s.samplers = append(s.samplers, q.NewSampler(cfg.P, cfg.Seed+uint64(i)*0x9e37))
	}
	return s, nil
}

// Size returns the number of logical qubits.
func (s *System) Size() int { return len(s.qubits) }

// Qubit exposes one logical qubit (for inspection; decoding through
// RunCycles must not run concurrently with direct use).
func (s *System) Qubit(i int) *LogicalQubit { return s.qubits[i] }

// RunCycles simulates n logical cycles of the whole fleet: every qubit
// samples its X/Z syndromes and decodes them, one qubit per pool chunk so
// a hard qubit never stalls the others. Each qubit's sampler advances only
// in its own chunk and its tallies merge in qubit order, so results are
// independent of the worker count. Returns the number of qubit-cycles
// that suffered a logical error.
func (s *System) RunCycles(n int) uint64 {
	if n <= 0 {
		return 0
	}
	type tally struct {
		errs           uint64
		latSum, latMax float64
	}
	tallies := make([]tally, len(s.qubits))
	pool.Run(s.workers, len(s.qubits), func(int) func(int) {
		var x, z Syndrome
		return func(i int) {
			q, sp, t := s.qubits[i], s.samplers[i], &tallies[i]
			for c := 0; c < n; c++ {
				sp.Sample(&x, &z)
				res := q.DecodeCycle(&x, &z)
				if res.LogicalError() {
					t.errs++
				}
				t.latSum += res.LatencyNS
				t.latMax = max(t.latMax, res.LatencyNS)
			}
		}
	})

	var errs uint64
	var sum, latMax float64
	for _, t := range tallies {
		errs += t.errs
		sum += t.latSum
		latMax = max(latMax, t.latMax)
	}
	s.mu.Lock()
	s.Cycles += uint64(n) * uint64(len(s.qubits))
	s.LogicalErrors += errs
	s.totalLatencyNS += sum
	s.maxLatencyNS = max(s.maxLatencyNS, latMax)
	s.mu.Unlock()
	return errs
}

// LogicalErrorRate returns logical errors per qubit-cycle so far.
func (s *System) LogicalErrorRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.LogicalErrors) / float64(s.Cycles)
}

// MeanLatencyNS returns the mean per-cycle decode latency so far.
func (s *System) MeanLatencyNS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Cycles == 0 {
		return 0
	}
	return s.totalLatencyNS / float64(s.Cycles)
}

// MaxLatencyNS returns the worst per-cycle decode latency observed.
func (s *System) MaxLatencyNS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxLatencyNS
}

// Memory returns the fleet's decoder memory (dedicated decoders; apply
// SystemMemory with cda=true for the Conjoined-Decoder Architecture).
func (s *System) Memory() MemoryBreakdown {
	return SystemMemory(len(s.qubits), s.qubits[0].Distance(), false)
}

// checkRate rejects a physical error rate outside [0, 1), NaN included.
func checkRate(p float64) error {
	if !(p >= 0 && p < 1) {
		return fmt.Errorf("afs: physical error rate %v outside [0,1)", p)
	}
	return nil
}

// StreamEngine runs L continuously-decoded logical-qubit streams — the
// deployed shape of the paper's decoding subsystem, where System runs
// isolated logical cycles. Each stream is a sliding-window StreamDecoder
// fed round by round from its own seeded noise source, and the fleet
// decodes in fixed stream partitions, one per worker. For a fixed Seed the
// committed corrections are bit-identical regardless of Workers.
type StreamEngine struct {
	eng      *stream.Engine
	samplers []*noise.RoundSampler
	feed     func(stream, round int) []int32
	rounds   uint64
}

// StreamEngineConfig configures a StreamEngine.
type StreamEngineConfig struct {
	// Streams is the number of logical-qubit streams L.
	Streams int
	// Distance is the code distance d.
	Distance int
	// Window and Commit configure every stream's decoding window, with the
	// same defaults as NewStreamDecoder.
	Window, Commit int
	// P is the physical error rate per round (data error and measurement
	// flip) of every stream.
	P float64
	// Seed makes the whole fleet reproducible.
	Seed uint64
	// Workers bounds decode parallelism; 0 selects GOMAXPROCS. It is
	// clamped to Streams.
	Workers int
	// OnCorrection, when non-nil, receives every committed correction with
	// its stream index; otherwise corrections are retained per stream for
	// Committed. Calls for one stream are serialized; calls for different
	// streams may be concurrent.
	OnCorrection func(stream int, c StreamCorrection)
	// Chaos, when non-nil, injects seeded link faults (drops, duplicates,
	// reorders, bit-flips on the CRC-framed link, stalls) on every stream's
	// qubit→decoder channel. Each stream faults independently but
	// reproducibly; see FaultReport for the ledger.
	Chaos *FaultConfig
	// DeadlineNS enforces a per-window decode deadline in model nanoseconds
	// (0 disables): overruns are recorded as timeout failures (Eq. 4) and
	// committed degraded instead of stalling the stream.
	DeadlineNS float64
	// QueueCap bounds each stream's decode backlog in rounds (0 disables):
	// past it the oldest undecoded round is shed and recorded.
	QueueCap int
	// Trace, when non-nil, records every stream's model-time decode events
	// (stream index as tid); export with Trace.WriteChrome. Deterministic:
	// a fixed-seed fleet emits the identical trace for any worker count.
	Trace *Trace
}

// NewStreamEngine builds the fleet and starts a helper goroutine for each
// stream partition but the caller's. Callers should Close the engine when
// done.
func NewStreamEngine(cfg StreamEngineConfig) (*StreamEngine, error) {
	if err := checkRate(cfg.P); err != nil {
		return nil, err
	}
	eng, err := stream.NewEngine(stream.EngineConfig{
		Streams:  cfg.Streams,
		Distance: cfg.Distance,
		Window:   cfg.Window,
		Commit:   cfg.Commit,
		Workers:  cfg.Workers,
		Sink:     cfg.OnCorrection,
		Chaos:    cfg.Chaos,
		Robust: stream.Robust{
			DeadlineNS: cfg.DeadlineNS,
			QueueCap:   cfg.QueueCap,
		},
		Trace: cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	e := &StreamEngine{eng: eng}
	for i := 0; i < cfg.Streams; i++ {
		e.samplers = append(e.samplers,
			noise.NewRoundSampler(cfg.Distance, cfg.P, cfg.Seed+uint64(i)*0x9e37, uint64(i)+1))
	}
	// One feed closure for the engine's lifetime, so steady-state RunRounds
	// stays off the heap.
	e.feed = func(stream, _ int) []int32 {
		return e.samplers[stream].SampleRound()
	}
	return e, nil
}

// RunRounds advances every stream by n rounds: each stream samples its own
// noise and decodes whenever a window fills. Each stream's sampler advances
// only in the stream's own partition, so the run is deterministic for any
// worker count.
func (e *StreamEngine) RunRounds(n int) error {
	if n <= 0 {
		return nil
	}
	err := e.eng.RunRounds(n, e.feed)
	e.rounds += uint64(n)
	return err
}

// Flush ends every stream (decoding remainders as closed windows). The
// engine can keep running new rounds afterwards.
func (e *StreamEngine) Flush() error { return e.eng.Flush() }

// FaultReport returns the fleet-wide fault ledger: faults injected on the
// links, detections, recoveries, erasures, timeout failures, degraded
// commits, and backpressure shedding across all streams.
func (e *StreamEngine) FaultReport() FaultReport { return e.eng.FaultReport() }

// StreamReport returns stream i's ledger alone — the per-stream rollup
// behind FaultReport's fleet merge. Not safe concurrently with RunRounds.
func (e *StreamEngine) StreamReport(i int) FaultReport { return e.eng.StreamReport(i) }

// Rounds returns the rounds fed to each stream so far.
func (e *StreamEngine) Rounds() uint64 { return e.rounds }

// Streams returns the fleet size L.
func (e *StreamEngine) Streams() int { return e.eng.Streams() }

// Workers returns the number of stream partitions in use.
func (e *StreamEngine) Workers() int { return e.eng.Workers() }

// Committed returns the corrections retained for stream i (engine built
// without an OnCorrection sink).
func (e *StreamEngine) Committed(i int) []StreamCorrection { return e.eng.Committed(i) }

// TotalCorrections returns the corrections committed across the fleet.
func (e *StreamEngine) TotalCorrections() uint64 { return e.eng.TotalCorrections() }

// Close stops the engine's helper goroutines; the engine must not be used
// afterwards.
func (e *StreamEngine) Close() { e.eng.Close() }
