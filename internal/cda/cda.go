// Package cda models the Conjoined-Decoder Architecture (paper §V): decoder
// blocks in which N logical qubits share a reduced, non-uniform set of
// pipeline units instead of owning 2N dedicated decoders.
//
// The paper's chosen configuration, reproduced by DefaultConfig, gives an
// FTQC with L logical qubits L Gr-Gen units (one per qubit, each growing
// clusters for both the X and the Z syndrome), L/2 DFS Engines and L/2
// CORR Engines — a 2x/4x/4x unit reduction — with pairs of Gr-Gen units
// sharing their Root and Size tables, which serializes cluster growth
// within a block while the two STMs keep operating in parallel.
//
// Sharing introduces a second failure source beside logical errors: a
// *timeout failure*, when contention delays a logical qubit's decode past
// the timeout threshold (350 ns, inside the 400 ns syndrome round). The
// accuracy constraint is p_tof << p_log (Eq. 4). Timeout probabilities of
// order 1e-11 are unreachable by direct sampling, so — like the paper's
// "performance model embedded in our simulator" — the package combines a
// discrete-event contention simulation over Monte-Carlo syndrome profiles
// with tail extrapolation of the resulting completion-time distribution.
package cda

import (
	"math/rand/v2"
	"sort"

	"afs/internal/microarch"
	"afs/internal/stats"
)

// DefaultTimeoutNS is the decoding deadline within the 400 ns round.
const DefaultTimeoutNS = 350.0

// Config describes a decoder block and the workload used to evaluate it.
type Config struct {
	// QubitsPerBlock is N, the number of logical qubits sharing a block.
	// Each qubit contributes two decoding tasks per logical cycle (X and
	// Z). 0 selects the paper's N=2.
	QubitsPerBlock int
	// GrGenUnits, DFSUnits and CorrUnits are the pipeline units per block.
	// 0 selects the paper's configuration (N Gr-Gen, 1 DFS, 1 CORR for
	// N=2).
	GrGenUnits int
	DFSUnits   int
	CorrUnits  int
	// NoSharedTables disables table sharing (ablation). By default paired
	// Gr-Gen units share Root/Size tables, which serializes Gr-Gen growth
	// across the block, as in the paper's final design point.
	NoSharedTables bool
	// TimeoutNS is the decoding deadline; 0 selects DefaultTimeoutNS.
	TimeoutNS float64
}

func (c Config) withDefaults() Config {
	if c.QubitsPerBlock == 0 {
		c.QubitsPerBlock = 2
	}
	if c.GrGenUnits == 0 {
		c.GrGenUnits = c.QubitsPerBlock
	}
	if c.DFSUnits == 0 {
		c.DFSUnits = 1
	}
	if c.CorrUnits == 0 {
		c.CorrUnits = 1
	}
	if c.TimeoutNS == 0 {
		c.TimeoutNS = DefaultTimeoutNS
	}
	return c
}

// AdmissionCap returns the number of logical-qubit streams a decode shard
// provisioned with `blocks` CDA decoder blocks admits: QubitsPerBlock
// streams per block (each logical qubit owns one Gr-Gen slot in its block;
// the DFS/CORR engines are the shared resources whose contention Simulate
// models). A decode-fleet shard uses this as its admission policy — streams
// past the cap are refused at Open so the router places them on a block
// that still has a slot, instead of silently overcommitting the shared
// pipeline units and inflating p_tof. blocks <= 0 yields 0 (admit nothing).
func AdmissionCap(blocks int, cfg Config) int {
	if blocks <= 0 {
		return 0
	}
	return blocks * cfg.withDefaults().QubitsPerBlock
}

// Result summarizes a CDA contention run.
type Result struct {
	Config Config
	// CompletionNS holds every task's completion time (2N per cycle).
	CompletionNS []float64
	// Summary are the distribution statistics of CompletionNS (the paper's
	// Fig. 12 reports mean 95 ns, median 85 ns, p99.9 190 ns).
	Summary stats.Summary
	// Timeouts is the number of tasks that missed the deadline, and
	// EmpiricalTimeoutRate the direct-sampling estimate.
	Timeouts             uint64
	EmpiricalTimeoutRate float64
	// TailFit extrapolates the completion CCDF; PTimeout is the
	// extrapolated probability of exceeding the deadline (the paper's
	// p_tof = 2e-11). TailOK reports whether the fit succeeded.
	TailFit  stats.TailFit
	TailOK   bool
	PTimeout float64
}

// Simulate runs `cycles` logical cycles of one decoder block, drawing each
// task's stage profile from the per-syndrome latency breakdowns in pool
// (collected by microarch.CollectLatencies with KeepBreakdowns).
func Simulate(cfg Config, pool []microarch.Breakdown, cycles int, seed uint64) Result {
	cfg = cfg.withDefaults()
	if len(pool) == 0 {
		panic("cda: empty latency pool")
	}
	rng := rand.New(rand.NewPCG(seed, 0xcda))
	tasks := 2 * cfg.QubitsPerBlock
	res := Result{Config: cfg}
	res.CompletionNS = make([]float64, 0, cycles*tasks)

	ggFree := make([]float64, cfg.GrGenUnits)
	dfsFree := make([]float64, cfg.DFSUnits)
	corrFree := make([]float64, cfg.CorrUnits)
	ggDone := make([]float64, tasks)
	dfsDone := make([]float64, tasks)
	completions := make([]float64, tasks)
	draw := make([]microarch.Breakdown, tasks)

	for c := 0; c < cycles; c++ {
		for i := range draw {
			draw[i] = pool[rng.IntN(len(pool))]
		}
		for i := range ggFree {
			ggFree[i] = 0
		}
		for i := range dfsFree {
			dfsFree[i] = 0
		}
		for i := range corrFree {
			corrFree[i] = 0
		}

		// Gr-Gen. Tasks are interleaved round-robin across qubits: first
		// every qubit's X syndrome, then every qubit's Z syndrome. With
		// shared Root/Size tables only one Gr-Gen grows at a time, so the
		// block behaves as a single growth server; without sharing, each
		// qubit's Gr-Gen runs its own two tasks back to back.
		if !cfg.NoSharedTables {
			clock := 0.0
			for i := 0; i < tasks; i++ {
				clock += draw[i].GrGen
				ggDone[i] = clock
			}
		} else {
			for i := 0; i < tasks; i++ {
				unit := (i % cfg.QubitsPerBlock) % cfg.GrGenUnits
				ggFree[unit] += draw[i].GrGen
				ggDone[i] = ggFree[unit]
			}
		}

		// DFS Engines: first-ready first-served onto the earliest-free
		// unit (the Select logic's round-robin arbitration).
		assignStage(ggDone, dfsFree, dfsDone, draw, stageDFS)
		// CORR Engines.
		assignStage(dfsDone, corrFree, completions, draw, stageCorr)
		res.CompletionNS = append(res.CompletionNS, completions...)
	}

	res.Summary = stats.Summarize(res.CompletionNS)
	for _, t := range res.CompletionNS {
		if t > cfg.TimeoutNS {
			res.Timeouts++
		}
	}
	res.EmpiricalTimeoutRate = float64(res.Timeouts) / float64(len(res.CompletionNS))
	if fit, err := stats.FitTail(res.CompletionNS, 0.999); err == nil {
		res.TailFit = fit
		res.TailOK = true
		res.PTimeout = fit.Exceedance(cfg.TimeoutNS)
		if res.EmpiricalTimeoutRate > res.PTimeout {
			res.PTimeout = res.EmpiricalTimeoutRate
		}
	} else {
		res.PTimeout = res.EmpiricalTimeoutRate
	}
	return res
}

type stageKind int

const (
	stageDFS stageKind = iota
	stageCorr
)

// assignStage schedules every task onto the stage's units: tasks are taken
// in order of readiness, each placed on the earliest-free unit, and their
// completion times written to done.
func assignStage(ready, free, done []float64, draw []microarch.Breakdown, kind stageKind) {
	n := len(ready)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ready[order[a]] < ready[order[b]] })
	for _, i := range order {
		// Earliest-free unit; ties resolved by index (round robin across a
		// symmetric initial state).
		u := 0
		for j := 1; j < len(free); j++ {
			if free[j] < free[u] {
				u = j
			}
		}
		start := ready[i]
		if free[u] > start {
			start = free[u]
		}
		var dur float64
		if kind == stageDFS {
			dur = draw[i].DFS
		} else {
			dur = draw[i].Corr
		}
		free[u] = start + dur
		done[i] = free[u]
	}
}
