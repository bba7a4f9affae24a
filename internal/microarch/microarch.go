// Package microarch models the AFS decoder micro-architecture of paper
// Fig. 6 — the three pipeline stages (Graph Generator, DFS Engine,
// Correction Engine) with their memory structures (Spanning Tree Memory,
// Zero Data Register, Root/Size tables, runtime and edge stacks, syndrome
// hold registers) — and charges decoding latency exactly the way the paper
// does (§IV-E):
//
//   - latency is dominated by reads from on-chip memory, modeled as 1 ns
//     per 32-bit access (4 cycles at a 4 GHz clock, [CryoCache]);
//   - the Gr-Gen stage costs tau_GG = sum_i sum_{j=1..diam(C_i)} j^2
//     (Eq. 2): growing cluster C_i for its j-th half-edge step touches a
//     boundary that has grown quadratically with j;
//   - the DFS Engine and CORR Engine each cost tau = sum_i |V(C_i)|
//     (Eq. 3): one access per cluster vertex;
//   - the design is fully pipelined across clusters: thanks to the
//     alternate edge stack (S1), the CORR Engine peels one cluster while
//     the DFS Engine traverses the next, so only the last cluster's
//     peeling is exposed after DFS completes. Spanning-forest generation
//     cannot begin before clusters stop growing, so Gr-Gen is not
//     overlapped.
//
// There is no single number that quantifies a decoder's latency — easier
// syndromes decode faster — so the model is evaluated over Monte-Carlo
// syndrome distributions (CollectLatencies) and reported as mean /
// percentile statistics, matching the paper's "42 ns average, <150 ns
// 99.9th percentile" methodology.
package microarch

import (
	"afs/internal/core"
	"afs/internal/lattice"
	"afs/internal/noise"
	"afs/internal/pool"
)

// Hardware constants of the paper's design point.
const (
	// ClockGHz is the decoder clock frequency.
	ClockGHz = 4.0
	// AccessCycles is the latency of a 32-bit on-chip memory access.
	AccessCycles = 4
	// AccessNS is the resulting memory access time in nanoseconds.
	AccessNS = float64(AccessCycles) / ClockGHz
	// WordBits is the memory word width.
	WordBits = 32
	// SequentialReads is the number of dependent memory reads issued
	// per counted operation: the paper states the decoder "requires up to
	// three sequential memory reads every cycle" (§IV-E), so each unit of
	// Eqs. (2)-(3) costs three back-to-back accesses. With this factor the
	// model reproduces the paper's dedicated-decoder numbers (42 ns mean,
	// <150 ns 99.9th percentile at d=11, p=1e-3).
	SequentialReads = 3
	// SyndromeRoundNS is the syndrome-generation cycle time for
	// superconducting qubits; decoding d rounds must finish within one
	// round to avoid the backlog problem.
	SyndromeRoundNS = 400.0
)

// Model selects latency-model variants for ablation; the zero value is the
// paper's pipelined design.
type Model struct {
	// DisablePipeline serializes the three stages per cluster (no S1
	// alternate edge stack): the full CORR time is exposed.
	DisablePipeline bool
	// HalfEdgeGrowthCost charges Eq. 2 per half-edge growth sweep instead
	// of per full-edge growth iteration. The STM stores half-edge growth
	// state (2 bits per edge), but a growth iteration of the hardware
	// advances a cluster boundary by a full edge; charging per half sweep
	// doubles the iteration count of isolated odd clusters and inflates
	// the latency tail. Kept as an ablation.
	HalfEdgeGrowthCost bool
}

// opNS is the charge of one operation of Eqs. (2)-(3): its sequential
// reads, back to back.
const opNS = AccessNS * SequentialReads

// Breakdown is the per-stage latency of one decode, in nanoseconds.
type Breakdown struct {
	GrGen float64 // Eq. 2
	DFS   float64 // Eq. 3
	Corr  float64 // Eq. 3
	// Exposed is the end-to-end decoding latency after pipelining.
	Exposed float64
}

// Latency applies the paper's latency equations to one decode's execution
// profile.
func (m Model) Latency(st *core.DecodeStats) Breakdown {
	var b Breakdown
	lastV := 0
	for _, c := range st.Clusters {
		// Eq. 2: sum of j^2 for j = 1..diam(C_i), with diam measured in
		// full-edge growth iterations (the decoder tracks half-edge state,
		// two sweeps per iteration).
		s := c.GrowthSteps
		if !m.HalfEdgeGrowthCost {
			s = (s + 1) / 2
		}
		b.GrGen += float64(s * (s + 1) * (2*s + 1) / 6)
		b.DFS += float64(c.Vertices)
		b.Corr += float64(c.Vertices)
		lastV = c.Vertices
	}
	b.GrGen *= opNS
	b.DFS *= opNS
	b.Corr *= opNS
	if m.DisablePipeline {
		b.Exposed = b.GrGen + b.DFS + b.Corr
	} else {
		// DFS/CORR overlap through the double edge stack: only the last
		// cluster's peeling remains exposed after DFS drains.
		b.Exposed = b.GrGen + b.DFS + float64(lastV)*opNS
	}
	return b
}

// StageUtilization is the fraction of decode time spent in each stage,
// averaged over a syndrome distribution. These fractions motivate the CDA
// sharing ratios: stages with low utilization are shared across more
// logical qubits.
type StageUtilization struct {
	GrGen, DFS, Corr float64
}

// CollectConfig configures a Monte-Carlo latency collection run.
type CollectConfig struct {
	Distance int
	Rounds   int // 0 => Distance
	P        float64
	Trials   int
	Seed     uint64
	Workers  int // 0 => GOMAXPROCS
	// ClosedCycle decodes isolated logical cycles (accuracy-style graphs)
	// instead of the default continuous decoding windows the hardware is
	// provisioned for (temporal boundary at the window end).
	ClosedCycle bool
	// KeepBreakdowns retains the per-trial stage breakdown (needed by the
	// CDA contention simulation).
	KeepBreakdowns bool
}

// CollectResult holds the latency distribution of a dedicated (conflict
// free) AFS decoder over random syndromes.
type CollectResult struct {
	// ExposedNS is the per-trial end-to-end latency, unsorted (trial
	// order), suitable for histogramming and tail fitting.
	ExposedNS []float64
	// Utilization is the average fraction of (unpipelined) work per stage.
	Utilization StageUtilization
	// MeanDefects is the mean syndrome weight.
	MeanDefects float64
	// MaxRuntimeStack and MaxEdgeStack are hardware high-water marks over
	// the whole run, used to validate stack provisioning.
	MaxRuntimeStack int
	MaxEdgeStack    int
	// Breakdowns holds the per-trial stage latencies when the run was
	// configured with KeepBreakdowns.
	Breakdowns []Breakdown
}

// collectChunk is CollectLatencies' trials per work chunk.
const collectChunk = 256

// CollectLatencies samples cfg.Trials random syndromes, decodes each, and
// returns the latency distribution under the hardware model. Trials run
// in chunks of collectChunk through internal/pool, chunk c drawing
// from its own stream PCG(Seed, c+1) and merging in chunk order, so the
// result depends on (Seed, Trials) and not on Workers.
func CollectLatencies(cfg CollectConfig) CollectResult {
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = cfg.Distance
	}
	var g *lattice.Graph
	switch {
	case rounds == 1:
		g = lattice.New2D(cfg.Distance)
	case cfg.ClosedCycle:
		g = lattice.New3D(cfg.Distance, rounds)
	default:
		g = lattice.New3DWindow(cfg.Distance, rounds)
	}
	nChunks := (cfg.Trials + collectChunk - 1) / collectChunk
	res := CollectResult{ExposedNS: make([]float64, cfg.Trials)}
	if cfg.KeepBreakdowns {
		res.Breakdowns = make([]Breakdown, cfg.Trials)
	}
	type part struct {
		gg, dfs, corr float64
		defects       uint64
		maxRT, maxES  int
	}
	parts := make([]part, nChunks)
	pool.Run(cfg.Workers, nChunks, func(int) func(int) {
		dec := core.NewDecoder(g, core.Options{})
		s := noise.NewSampler(g, cfg.P, cfg.Seed, 1)
		var trial noise.Trial
		return func(c int) {
			s.Reseed(cfg.Seed, uint64(c)+1)
			pt := &parts[c]
			for i := c * collectChunk; i < min((c+1)*collectChunk, cfg.Trials); i++ {
				s.Sample(&trial)
				dec.Decode(trial.Defects)
				b := Model{}.Latency(&dec.Stats)
				res.ExposedNS[i] = b.Exposed
				if cfg.KeepBreakdowns {
					res.Breakdowns[i] = b
				}
				pt.gg += b.GrGen
				pt.dfs += b.DFS
				pt.corr += b.Corr
				pt.defects += uint64(len(trial.Defects))
				pt.maxRT = max(pt.maxRT, dec.Stats.MaxRuntimeStack)
				pt.maxES = max(pt.maxES, dec.Stats.MaxEdgeStack)
			}
		}
	})

	var gg, dfs, corr float64
	var defects uint64
	for i := range parts {
		gg += parts[i].gg
		dfs += parts[i].dfs
		corr += parts[i].corr
		defects += parts[i].defects
		res.MaxRuntimeStack = max(res.MaxRuntimeStack, parts[i].maxRT)
		res.MaxEdgeStack = max(res.MaxEdgeStack, parts[i].maxES)
	}
	total := gg + dfs + corr
	if total > 0 {
		res.Utilization = StageUtilization{GrGen: gg / total, DFS: dfs / total, Corr: corr / total}
	}
	if cfg.Trials > 0 {
		res.MeanDefects = float64(defects) / float64(cfg.Trials)
	}
	return res
}
