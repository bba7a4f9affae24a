// Differential soundness tests for the partial-residual decomposition:
// peeled closed-form parity XOR residual decode parity must equal the
// undecomposed full decode's parity, for every decoder in the repository,
// on exhaustive small placements, randomized fault-shaped and adversarial
// syndromes, and fuzzed inputs.
package core_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"afs/internal/core"
	"afs/internal/lattice"
	"afs/internal/noise"
)

// peelStats tallies how a body of syndromes moved through PeelResidual so
// the tests can require that every outcome class is actually exercised.
type peelStats struct {
	resolved int // everything certified: no decoder work left
	partial  int // some components peeled, residual decoded
	unpeeled int // nothing certified: input returned verbatim
}

// checkPeelResidual verifies the certificate on one syndrome: structural
// invariants of the returned residual, and parity equivalence
// peel ^ decode(residual) == decode(whole) under every decoder.
func checkPeelResidual(t *testing.T, g *lattice.Graph, tri *core.Triage, decs []namedDecoder, defects []int32, st *peelStats) {
	t.Helper()
	parity, res, peeled := tri.PeelResidual(defects)
	// Structural invariants.
	if !isSubsequence(res, defects) {
		t.Fatalf("%v: residual %v is not a subsequence of %v", g, res, defects)
	}
	switch {
	case len(res) == len(defects):
		if parity || peeled != 0 {
			t.Fatalf("%v: unpeeled syndrome %v returned parity=%v peeled=%d", g, defects, parity, peeled)
		}
		st.unpeeled++
	case len(res) == 0:
		if peeled == 0 {
			t.Fatalf("%v: fully resolved %v with peeled=0", g, defects)
		}
		st.resolved++
	default:
		if peeled == 0 {
			t.Fatalf("%v: partial residual %v of %v with peeled=0", g, res, defects)
		}
		st.partial++
	}
	// Parity equivalence vs every decoder. The residual aliases triage
	// scratch, so copy it before the decoders run.
	resCopy := slices.Clone(res)
	for _, dec := range decs {
		full := dec.decode(defects)
		checkSyndrome(t, g, full, defects)
		want := cutParity(g, full)
		got := parity
		if len(resCopy) > 0 {
			rc := dec.decode(resCopy)
			checkSyndrome(t, g, rc, resCopy)
			got = got != cutParity(g, rc)
		}
		if got != want {
			t.Fatalf("%v: %s peel parity %v != full parity %v on %v (residual %v, peeled %d)",
				g, dec.name, got, want, defects, resCopy, peeled)
		}
	}
	// Idempotence: the decomposition is a pure function of the syndrome
	// (scratch reuse must not leak state between calls).
	p2, r2, n2 := tri.PeelResidual(defects)
	if p2 != parity || n2 != peeled || !slices.Equal(r2, resCopy) {
		t.Fatalf("%v: PeelResidual not idempotent on %v: (%v,%v,%d) then (%v,%v,%d)",
			g, defects, parity, resCopy, peeled, p2, r2, n2)
	}
}

func isSubsequence(sub, full []int32) bool {
	j := 0
	for _, v := range full {
		if j < len(sub) && sub[j] == v {
			j++
		}
	}
	return j == len(sub)
}

// peelDecoders is decodersFor minus the hierarchical router. The strict XOR
// identity (peel ^ decode(residual) == decode(whole)) holds for any decoder
// that resolves an isolated defect group the same way standalone as inside
// the full syndrome — true for the Union-Find family (per-group evolution is
// context-free under the isolation invariant; every certificate is built on
// exactly that) and for deterministic min-weight matchers. The hierarchical
// router is context-sensitive by design: whether its local first stage or
// its fallback fires depends on the whole syndrome, so on a residual with a
// weight tie between homology classes (e.g. a B=1 pair at distance 2:
// boundary pair vs interior chain, both weight 2) the two routes can pick
// different — equally valid, equally minimal — classes, and the identity
// legitimately fails. The decomposition only claims outcome equivalence for
// the decoder that actually decodes the residual (the kernels use
// Union-Find), so hierarchical is checked everywhere else but not here.
func peelDecoders(g *lattice.Graph) []namedDecoder {
	all := decodersFor(g)
	out := all[:0]
	for _, d := range all {
		if d.name != "hierarchical" {
			out = append(out, d)
		}
	}
	return out
}

// TestPeelResidualExhaustiveWeight3 sweeps every weight-3 placement on the
// small graphs. Weight 3 is the smallest weight PeelResidual acts on and
// the richest source of peel/demote boundaries relative to its size:
// pair+single splits, near-boundary duo bands, and triangle components.
func TestPeelResidualExhaustiveWeight3(t *testing.T) {
	var st peelStats
	for _, g := range triageGraphs() {
		if g.V > 64 {
			continue // cubic-in-V sweep: the larger graphs are covered randomly
		}
		tri := core.NewTriage(g)
		decs := peelDecoders(g)
		for u := int32(0); u < int32(g.V); u++ {
			for v := u + 1; v < int32(g.V); v++ {
				for w := v + 1; w < int32(g.V); w++ {
					checkPeelResidual(t, g, tri, decs, []int32{u, v, w}, &st)
				}
			}
		}
	}
	// The tiniest graph demotes everything (no isolation room at d=3), so
	// the outcome-coverage assertion is over the whole sweep.
	if st.partial == 0 || st.resolved == 0 || st.unpeeled == 0 {
		t.Fatalf("exhaustive weight-3 sweep missed a peel outcome class (stats %+v)", st)
	}
}

// TestPeelResidualRandomSyndromes drives the decomposition with the same
// two generators as the triage-layer tests — fault-sampled syndromes and
// adversarial uniform vertex sets — across all tier-1 graphs.
func TestPeelResidualRandomSyndromes(t *testing.T) {
	var st peelStats
	for _, g := range triageGraphs() {
		tri := core.NewTriage(g)
		decs := peelDecoders(g)
		rng := rand.New(rand.NewPCG(11, uint64(g.V)))
		flip := make(map[int32]bool)
		defects := make([]int32, 0, 24)
		for trial := 0; trial < 1500; trial++ {
			// Fault-sampled generator.
			clear(flip)
			for f := 2 + rng.IntN(7); f > 0; f-- {
				ed := &g.Edges[rng.IntN(len(g.Edges))]
				for _, v := range [2]int32{ed.U, ed.V} {
					if !g.IsBoundary(v) {
						flip[v] = !flip[v]
					}
				}
			}
			defects = defects[:0]
			for v, on := range flip {
				if on {
					defects = append(defects, v)
				}
			}
			slices.Sort(defects)
			if len(defects) >= 3 {
				checkPeelResidual(t, g, tri, decs, defects, &st)
			}

			// Adversarial generator: uniform distinct vertices.
			clear(flip)
			for len(flip) < 3+rng.IntN(8) {
				flip[int32(rng.IntN(g.V))] = true
			}
			defects = defects[:0]
			for v := range flip {
				defects = append(defects, v)
			}
			slices.Sort(defects)
			checkPeelResidual(t, g, tri, decs, defects, &st)
		}
	}
	if st.resolved == 0 || st.partial == 0 || st.unpeeled == 0 {
		t.Fatalf("random sweep missed a peel outcome class (stats %+v)", st)
	}
}

// Steady-state peeling must not allocate: the residual buffer and the
// multi-defect scratch are owned by the Triage and reused across calls.
// Besides small fault-sampled syndromes, the set holds the worst case the
// scratch must absorb: 32-defect near-threshold syndromes (k ==
// maxTriageDefects, every mask bit in use) whose isolation pass demotes
// certified dominoes, so demoted groups re-enter the worklist.
func TestPeelResidualZeroAllocSteadyState(t *testing.T) {
	g := lattice.New3D(7, 7)
	tri := core.NewTriage(g)
	rng := rand.New(rand.NewPCG(19, 7))
	var syndromes [][]int32
	flip := make(map[int32]bool)
	sample := func(faults int) []int32 {
		clear(flip)
		for f := faults; f > 0; f-- {
			ed := &g.Edges[rng.IntN(len(g.Edges))]
			for _, v := range [2]int32{ed.U, ed.V} {
				if !g.IsBoundary(v) {
					flip[v] = !flip[v]
				}
			}
		}
		defects := make([]int32, 0, 40)
		for v, on := range flip {
			if on {
				defects = append(defects, v)
			}
		}
		slices.Sort(defects)
		return defects
	}
	for len(syndromes) < 16 {
		if defects := sample(3 + rng.IntN(6)); len(defects) >= 3 {
			syndromes = append(syndromes, defects)
		}
	}
	heavy := 0
	for tries := 0; heavy < 16; tries++ {
		if tries == 200000 {
			t.Fatalf("found only %d cascading 32-defect syndromes", heavy)
		}
		defects := sample(16 + rng.IntN(4))
		if len(defects) != 32 {
			continue
		}
		_, res, peeled := tri.PeelResidual(defects)
		if peeled == 0 || len(res) == 0 || !demotedDomino(g, defects, res) {
			continue
		}
		syndromes = append(syndromes, defects)
		heavy++
	}
	for _, s := range syndromes {
		tri.PeelResidual(s) // warm the residual buffer
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		tri.PeelResidual(syndromes[i%len(syndromes)])
		i++
	})
	if avg != 0 {
		t.Fatalf("PeelResidual allocates %.1f times per call in steady state", avg)
	}
}

// demotedDomino reports whether res holds an isolated distance-1 pair of
// defects. PeelResidual certifies such a pair on sight, so finding one in
// the residual means the isolation pass demoted it.
func demotedDomino(g *lattice.Graph, defects, res []int32) bool {
	partner := func(u int32) (int32, bool) {
		var nb []int32
		for _, v := range defects {
			if g.GraphDistance(u, v) == 1 {
				nb = append(nb, v)
			}
		}
		if len(nb) != 1 {
			return 0, false
		}
		return nb[0], true
	}
	for _, u := range res {
		if v, ok := partner(u); ok && slices.Contains(res, v) {
			if w, ok := partner(v); ok && w == u {
				return true
			}
		}
	}
	return false
}

// samePeel fails t unless the production peel and the original all-pairs
// sweep agree on defects. Each runs on its own Triage, since the residual
// aliases per-Triage scratch.
func samePeel(t testing.TB, g *lattice.Graph, cur, ref *core.Triage, defects []int32) {
	t.Helper()
	p1, r1, n1 := cur.PeelResidual(defects)
	p2, r2, n2 := core.PeelResidualRef(ref, defects)
	if p1 != p2 || n1 != n2 || !slices.Equal(r1, r2) {
		t.Fatalf("%v: PeelResidual(%v) = (%v, %v, %d), reference (%v, %v, %d)",
			g, defects, p1, r1, n1, p2, r2, n2)
	}
}

// TestPeelResidualMatchesReference pins the worklist peel to the original
// all-pairs demotion sweep: both compute the least fixpoint of the same
// demotion rule, so (parity, residual, peeled) must be equal on every
// sorted input — sampled syndromes from the design point to past
// threshold on the 2-D graph, closed logical-cycle graphs from d=3 to the
// design point and continuous-window graphs (whose temporal boundary adds
// side ties), and uniform random sorted sets of 3 to 32 defects.
func TestPeelResidualMatchesReference(t *testing.T) {
	batches := 40
	if testing.Short() {
		batches = 8
	}
	graphs := []*lattice.Graph{
		lattice.New2D(11),
		lattice.New3D(3, 3), lattice.New3D(5, 5), lattice.New3D(7, 7), lattice.New3D(11, 11),
		lattice.New3DWindow(5, 5), lattice.New3DWindow(11, 11),
	}
	var st peelStats
	for gi, g := range graphs {
		cur, ref := core.NewTriage(g), core.NewTriage(g)
		tally := func(defects []int32) {
			samePeel(t, g, cur, ref, defects)
			if k := len(defects); k < 3 || k > 32 {
				return
			}
			switch _, res, _ := cur.PeelResidual(defects); {
			case len(res) == 0:
				st.resolved++
			case len(res) == len(defects):
				st.unpeeled++
			default:
				st.partial++
			}
		}
		var b noise.Batch
		for pi, p := range []float64{1e-3, 3e-3, 1e-2, 2e-2, 4e-2} {
			s := noise.NewBatchSampler(g, p, 23+uint64(gi), uint64(pi), g.NorthCutQubits())
			for n := 0; n < batches; n++ {
				s.SampleBatch(&b, 256)
				for i := 0; i < b.K; i++ {
					tally(b.TrialDefects(i))
				}
			}
		}
		rng := rand.New(rand.NewPCG(29, uint64(g.V)))
		seen := make(map[int32]bool)
		defects := make([]int32, 0, 32)
		for trial := 0; trial < 50*batches; trial++ {
			clear(seen)
			defects = defects[:0]
			for n := min(3+rng.IntN(30), g.V); len(defects) < n; {
				if v := int32(rng.IntN(g.V)); !seen[v] {
					seen[v] = true
					defects = append(defects, v)
				}
			}
			slices.Sort(defects)
			tally(defects)
		}
	}
	if st.resolved == 0 || st.partial == 0 || st.unpeeled == 0 {
		t.Fatalf("reference comparison missed a peel outcome class (stats %+v)", st)
	}
	t.Logf("compared %d peelable syndromes (stats %+v)", st.resolved+st.partial+st.unpeeled, st)
}

// BenchmarkPeelResidual times one in-cache PeelResidual call against the
// original all-pairs sweep (core.PeelResidualRef) on the population the
// kernels feed it: about 1k sampled syndromes with 3 or more defects at
// the design point (d=11, p=1e-3) and near threshold (d=7, p=0.02). The
// current and reference sub-benchmarks run back to back in one process,
// a same-run ablation of the worklist.
func BenchmarkPeelResidual(b *testing.B) {
	for _, pt := range []struct {
		d int
		p float64
	}{{11, 1e-3}, {7, 0.02}} {
		g := lattice.New3D(pt.d, pt.d)
		s := noise.NewBatchSampler(g, pt.p, 31, 0, g.NorthCutQubits())
		var set [][]int32
		var batch noise.Batch
		for len(set) < 1024 {
			s.SampleBatch(&batch, 256)
			for i := 0; i < batch.K && len(set) < 1024; i++ {
				if df := batch.TrialDefects(i); len(df) >= 3 {
					set = append(set, slices.Clone(df))
				}
			}
		}
		tri := core.NewTriage(g)
		for _, impl := range []struct {
			name string
			peel func(*core.Triage, []int32) (bool, []int32, int)
		}{
			{"current", (*core.Triage).PeelResidual},
			{"reference", core.PeelResidualRef},
		} {
			b.Run(fmt.Sprintf("d=%d/p=%g/%s", pt.d, pt.p, impl.name), func(b *testing.B) {
				for _, df := range set {
					impl.peel(tri, df) // warm the residual buffer
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.peel(tri, set[i%len(set)])
				}
			})
		}
	}
}

// FuzzPeelResidual is the differential fuzz gate (CI fuzz-smoke): on the
// d=5 cubic graph, PeelResidual must agree with the original all-pairs
// sweep (core.PeelResidualRef), and peel parity XOR residual decode parity
// must equal the undecomposed decode parity, for every syndrome the fuzzer
// constructs. The seed corpus is built from fault-sampled syndromes the
// peel leaves a residual on, the population the kernels hand the decoder.
func FuzzPeelResidual(f *testing.F) {
	g := lattice.New3D(5, 5)
	tri, ref := core.NewTriage(g), core.NewTriage(g)
	dec := core.NewDecoder(g, core.Options{})

	// Residual-leaving syndrome captures as seeds (deterministic).
	rng := rand.New(rand.NewPCG(17, 5))
	flip := make(map[int32]bool)
	for seeds := 0; seeds < 12; {
		clear(flip)
		for fts := 2 + rng.IntN(6); fts > 0; fts-- {
			ed := &g.Edges[rng.IntN(len(g.Edges))]
			for _, v := range [2]int32{ed.U, ed.V} {
				if !g.IsBoundary(v) {
					flip[v] = !flip[v]
				}
			}
		}
		defects := make([]int32, 0, 16)
		for v, on := range flip {
			if on {
				defects = append(defects, v)
			}
		}
		slices.Sort(defects)
		if len(defects) < 3 {
			continue
		}
		if _, res, _ := tri.PeelResidual(defects); len(res) == 0 {
			continue
		}
		raw := make([]byte, len(defects))
		for i, v := range defects {
			raw[i] = byte(v)
		}
		f.Add(raw)
		seeds++
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 20 {
			raw = raw[:20]
		}
		seen := make(map[int32]bool)
		defects := make([]int32, 0, len(raw))
		for _, b := range raw {
			v := int32(b) % int32(g.V)
			if !seen[v] {
				seen[v] = true
				defects = append(defects, v)
			}
		}
		slices.Sort(defects)
		samePeel(t, g, tri, ref, defects)
		parity, res, _ := tri.PeelResidual(defects)
		res = slices.Clone(res)
		full := dec.Decode(defects)
		checkSyndrome(t, g, full, defects)
		want := cutParity(g, full)
		got := parity
		if len(res) > 0 {
			rc := dec.Decode(res)
			checkSyndrome(t, g, rc, res)
			got = got != cutParity(g, rc)
		}
		if got != want {
			t.Fatalf("peel parity %v != full parity %v on %v (residual %v)", got, want, defects, res)
		}
	})
}
