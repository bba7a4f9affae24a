package microarch

import (
	"afs/internal/core"
	"afs/internal/lattice"
)

// AccessModel is the second, finer-grained latency model: instead of the
// paper's closed-form Eqs. (2)-(3) it charges the memory accesses the
// decode actually performed — boundary-list visits and half-edge
// read-modify-writes in the STM, Root/Size table operations, the DFS
// Engine's row scan, and the stack traffic — at AccessNS per access.
//
// Its main purpose is the Zero Data Register ablation: with the ZDR, the
// DFS Engine reads only the STM rows that hold cluster state
// (DecodeStats.TouchedRows); without it, every row of the memory is
// scanned every decode. The difference is the ZDR's entire value
// proposition (paper §IV-C), invisible to the closed-form model.
//
// TouchedRows slightly undercounts rows occupied by vertices absorbed in a
// cluster's final growth sweep, so the model is a (tight) lower bound on
// the ZDR-enabled scan cost.
type AccessModel struct {
	// STMRows is the number of 32-bit vertex rows in the STM,
	// ceil(V/WordBits); set by NewAccessModel.
	STMRows int
	// DisableZDR makes the DFS Engine scan the full STM instead of only
	// occupied rows (ablation).
	DisableZDR bool
}

// NewAccessModel builds the model for graph g.
func NewAccessModel(g *lattice.Graph) AccessModel {
	return AccessModel{STMRows: (g.V + WordBits - 1) / WordBits}
}

// Latency charges the decode's counted accesses per stage.
func (m AccessModel) Latency(st *core.DecodeStats) Breakdown {
	// Gr-Gen: one row read per boundary-list visit, a read-modify-write
	// (2 accesses) per half-edge growth increment, plus Union-Find table
	// traffic.
	gg := float64(st.GrowthVisits) +
		2*float64(st.GrowthIncrements) +
		float64(st.RootTableAccesses+st.SizeTableAccesses)

	// DFS Engine: the ZDR-directed row scan, then one STM read per cluster
	// vertex and one edge-stack write per spanning-tree edge.
	scan := st.TouchedRows
	if m.DisableZDR {
		scan = m.STMRows
	}
	vertices := 0
	lastV := 0
	for _, c := range st.Clusters {
		vertices += c.Vertices
		lastV = c.Vertices
	}
	dfs := float64(scan) + float64(vertices) + float64(st.SupportEdges)

	// CORR Engine: one edge-stack pop per tree edge plus one correction
	// write per emitted edge; syndrome state lives in hold registers.
	corr := float64(st.SupportEdges) + float64(st.CorrectionEdges)

	b := Breakdown{GrGen: gg * AccessNS, DFS: dfs * AccessNS, Corr: corr * AccessNS}
	// Only the last cluster's peel is exposed behind the double edge stack;
	// approximate its share of CORR by its vertex fraction.
	last := 0.0
	if vertices > 0 {
		last = b.Corr * float64(lastV) / float64(vertices)
	}
	b.Exposed = b.GrGen + b.DFS + last
	return b
}
