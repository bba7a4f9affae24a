// Exhaustive soundness tests for the scalar certificate's closed forms:
// every weight-1 and weight-2 defect placement on small graphs, checked
// against every decoder in the repository. This is an external test package so it
// can pull in the decoders that themselves import core.
package core_test

import (
	"slices"
	"testing"

	"afs/internal/core"
	"afs/internal/hierarchical"
	"afs/internal/lattice"
	"afs/internal/lut"
	"afs/internal/mwpm"
)

// cutParity counts north-cut edges (spatial edges on vertical k=0 qubits)
// mod 2 — the logical-failure contribution of a correction.
func cutParity(g *lattice.Graph, edges []int32) bool {
	p := false
	for _, e := range edges {
		ed := &g.Edges[e]
		if ed.Kind == lattice.Spatial && ed.Qubit < int32(g.Distance) {
			p = !p
		}
	}
	return p
}

// checkSyndrome verifies that corr's syndrome is exactly defects.
func checkSyndrome(t *testing.T, g *lattice.Graph, corr, defects []int32) {
	t.Helper()
	par := make(map[int32]int)
	for _, e := range corr {
		ed := &g.Edges[e]
		if !g.IsBoundary(ed.U) {
			par[ed.U] ^= 1
		}
		if !g.IsBoundary(ed.V) {
			par[ed.V] ^= 1
		}
	}
	for _, v := range defects {
		par[v] ^= 1
	}
	for v, p := range par {
		if p != 0 {
			t.Fatalf("correction syndrome mismatch at vertex %d (defects %v, corr %v)", v, defects, corr)
		}
	}
}

type namedDecoder struct {
	name   string
	decode func([]int32) []int32
}

// decodersFor builds every decoder variant in the repo that accepts g.
func decodersFor(g *lattice.Graph) []namedDecoder {
	out := []namedDecoder{
		{"uf", core.NewDecoder(g, core.Options{}).Decode},
		{"uf-lean", core.NewDecoder(g, core.Options{LeanStats: true}).Decode},
		{"mwpm", mwpm.NewDecoder(g).Decode},
		{"hierarchical", hierarchical.New(g, core.NewDecoder(g, core.Options{})).Decode},
	}
	if d, err := lut.New(g); err == nil {
		out = append(out, namedDecoder{"lut", d.Decode})
	}
	return out
}

func triageGraphs() []*lattice.Graph {
	return []*lattice.Graph{
		lattice.New2D(3), lattice.New2D(5),
		lattice.New3D(3, 3), lattice.New3D(5, 5),
		lattice.New3DWindow(3, 3), lattice.New3DWindow(5, 5),
	}
}

// TestTriageExhaustiveWeightLE2 runs the scalar certificate's weight <= 2
// base case on every weight-1 and weight-2 placement and requires that
// (a) it either resolves the syndrome whole (empty residual, nothing
// peeled) or returns it unpeeled, and (b) every decoder in the repo
// produces a valid correction in the resolved parity's homology class —
// the failure statistic the certificate substitutes for.
func TestTriageExhaustiveWeightLE2(t *testing.T) {
	for _, g := range triageGraphs() {
		tri := core.NewTriage(g)
		decs := decodersFor(g)
		classified := 0
		check := func(defects []int32) {
			parity, res, peeled := tri.PeelResidual(defects)
			if peeled != 0 {
				t.Fatalf("%v: weight-%d syndrome %v peeled %d components", g, len(defects), defects, peeled)
			}
			if len(res) != 0 {
				if parity || !slices.Equal(res, defects) {
					t.Fatalf("%v: punt of %v returned parity=%v residual %v", g, defects, parity, res)
				}
				return
			}
			classified++
			for _, dec := range decs {
				got := dec.decode(defects)
				checkSyndrome(t, g, got, defects)
				if cutParity(g, got) != parity {
					t.Fatalf("%v: %s parity %v != certified parity %v on %v (corr %v)",
						g, dec.name, !parity, parity, defects, got)
				}
			}
		}
		check(nil)
		for u := int32(0); u < int32(g.V); u++ {
			check([]int32{u})
		}
		for u := int32(0); u < int32(g.V); u++ {
			for v := u + 1; v < int32(g.V); v++ {
				check([]int32{u, v})
			}
		}
		if classified == 0 {
			t.Fatalf("%v: the base case resolved nothing", g)
		}
	}
}

// TestTriageW0 pins the trivial class: the empty syndrome resolves with
// parity 0.
func TestTriageW0(t *testing.T) {
	tri := core.NewTriage(lattice.New3D(3, 3))
	parity, res, peeled := tri.PeelResidual(nil)
	if parity || len(res) != 0 || peeled != 0 {
		t.Fatalf("weight-0 syndrome: parity=%v residual=%v peeled=%d", parity, res, peeled)
	}
}
