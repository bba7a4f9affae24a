package afs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"afs/internal/faults"
	"afs/internal/lattice"
	"afs/internal/noise"
	"afs/internal/obs"
	"afs/internal/stream"
)

// FaultConfig configures the seeded fault injectors of the chaos layer:
// dropped, duplicated, and reordered syndrome rounds, bit-flips on the
// CRC-framed qubit→decoder link, decoder stalls, and per-round service-time
// inflation. The zero value injects nothing. See internal/faults.
type FaultConfig = faults.Config

// FaultReport is the merged fault ledger of a run: every injected fault is
// accounted as detected or undetected, every round as clean, recovered,
// corrupted, or erased, and the runtime side tallies windows, timeout
// failures (Eq. 4's p_tof), degraded commits, and backpressure shedding.
type FaultReport = faults.Report

// StreamRobustnessConfig configures a Monte-Carlo robustness measurement of
// the streaming decoder under injected faults and a decode deadline.
type StreamRobustnessConfig struct {
	// Distance is the code distance d.
	Distance int
	// Rounds is the stream length per trial; 0 selects 4d.
	Rounds int
	// Window and Commit configure the sliding window, with the same
	// defaults as NewStreamDecoder.
	Window, Commit int
	// P is the physical error rate per round.
	P float64
	// Trials is the number of independent streams measured.
	Trials int
	// Seed makes the run reproducible; results are bit-identical for any
	// worker count.
	Seed uint64
	// Workers bounds parallelism; 0 selects GOMAXPROCS.
	Workers int
	// Chaos, when non-nil, passes every round through a seeded fault
	// channel before the decoder sees it.
	Chaos *FaultConfig
	// DeadlineNS enforces a per-window decode deadline in model nanoseconds
	// (0 disables); overruns commit degraded and count toward PTimeout.
	DeadlineNS float64
	// QueueCap bounds the decode backlog in rounds (0 disables).
	QueueCap int
	// Trace, when non-nil, records every trial's model-time decode events
	// (windows, timeouts, shed/recover episodes) with the trial index as
	// tid — so a fixed-seed run exports the identical trace for any worker
	// count.
	Trace *obs.Trace
}

// StreamRobustnessResult reports accuracy and fault accounting of a
// robustness run.
type StreamRobustnessResult struct {
	// Trials is the number of streams decoded; Failures of them ended with
	// a logical error.
	Trials, Failures int
	// PLogical is the per-stream logical error rate.
	PLogical float64
	// PTimeout is the fraction of decoded windows that missed the deadline
	// — the empirical p_tof of Eq. 4, which must stay well below PLogical
	// for timeouts not to limit the machine.
	PTimeout float64
	// Report is the merged fault ledger across all trials.
	Report FaultReport
}

// MeasureStreamRobustness Monte-Carlo-measures the streaming decoder's
// logical error rate while the chaos layer injects faults on the syndrome
// link and the deadline/backpressure machinery degrades gracefully. Each
// trial is an independent stream: noise is sampled over a closed d×d×T
// lattice, split into rounds, carried through the fault channel (when
// configured), decoded with a sliding window, and the committed spatial
// corrections are checked against the true error for a logical failure.
//
// Trials are seeded individually, so the result — including the merged
// FaultReport — is bit-identical for any worker count.
func MeasureStreamRobustness(cfg StreamRobustnessConfig) (StreamRobustnessResult, error) {
	if cfg.Trials < 1 {
		return StreamRobustnessResult{}, fmt.Errorf("afs: robustness run needs at least one trial")
	}
	if err := checkRate(cfg.P); err != nil {
		return StreamRobustnessResult{}, err
	}
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = 4 * cfg.Distance
	}
	if rounds < 2 {
		return StreamRobustnessResult{}, fmt.Errorf("afs: stream length %d < 2 rounds", rounds)
	}
	// Probe the decoder configuration once so bad parameters fail fast
	// instead of inside the worker pool.
	robust := stream.Robust{DeadlineNS: cfg.DeadlineNS, QueueCap: cfg.QueueCap}
	if _, err := stream.NewRobust(cfg.Distance, cfg.Window, cfg.Commit, robust); err != nil {
		return StreamRobustnessResult{}, err
	}

	g := lattice.New3D(cfg.Distance, rounds)
	cut := g.NorthCutQubits()
	per := g.LayerVertices()
	workers := clampWorkers(cfg.Workers, cfg.Trials)

	type part struct {
		failures int
		rep      FaultReport
	}
	parts := make([]part, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dec, err := stream.NewRobust(cfg.Distance, cfg.Window, cfg.Commit, robust)
			if err != nil {
				fail(err)
				return
			}
			var ch *faults.Channel
			if cfg.Chaos != nil {
				ch = faults.NewChannel(per, *cfg.Chaos)
			}
			layers := make([][]int32, rounds)
			var trial noise.Trial
			var residual noise.Bitset
			pt := &parts[w]
			for {
				i := int(next.Add(1) - 1)
				if i >= cfg.Trials {
					break
				}
				// Per-trial seeding keeps every trial's noise and faults
				// independent of which worker runs it.
				s := noise.NewSampler(g, cfg.P, cfg.Seed, uint64(i)+1)
				if cfg.Trace != nil {
					dec.SetTrace(cfg.Trace, int32(i))
				}
				if ch != nil {
					ch.Reset(faults.StreamSeed(cfg.Chaos.Seed, i))
				}
				s.Sample(&trial)
				for t := range layers {
					layers[t] = layers[t][:0]
				}
				for _, v := range trial.Defects {
					layers[int(v)/per] = append(layers[int(v)/per], int32(int(v)%per))
				}
				for _, l := range layers {
					ev := l
					if ch != nil {
						delivered, erased, pen := ch.Transfer(l)
						dec.AddPenaltyNS(pen)
						if erased {
							dec.PushErased()
							continue
						}
						ev = delivered
					}
					if err := dec.PushLayer(ev); err != nil {
						fail(err)
						return
					}
				}
				residual.Resize(g.NumDataQubits())
				residual.Clear()
				residual.Xor(trial.NetData)
				for _, c := range dec.Flush() {
					if c.Kind == lattice.Spatial {
						residual.Flip(int(c.Qubit))
					}
				}
				if residual.Parity(cut) {
					pt.failures++
				}
				if ch != nil {
					// Reset rewinds the ledger with the RNG, so bank this
					// trial's link counters before the next trial reseeds.
					pt.rep.Merge(ch.Report())
				}
			}
			pt.rep.Merge(dec.Report())
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return StreamRobustnessResult{}, firstErr
	}

	var res StreamRobustnessResult
	res.Trials = cfg.Trials
	for i := range parts {
		res.Failures += parts[i].failures
		res.Report.Merge(parts[i].rep)
	}
	res.PLogical = float64(res.Failures) / float64(res.Trials)
	res.PTimeout = res.Report.PTimeout()
	return res, nil
}
