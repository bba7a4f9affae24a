package core

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"afs/internal/lattice"
	"afs/internal/noise"
)

// syndromeMatches checks the defining property of a valid correction: it
// reproduces exactly the measured defects.
func syndromeMatches(t *testing.T, g *lattice.Graph, defects, correction []int32) {
	t.Helper()
	got := SyndromeOf(g, correction)
	want := append([]int32(nil), defects...)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("correction syndrome mismatch:\n got  %v\n want %v\n correction %v", got, want, correction)
	}
}

func TestDecodeEmptySyndrome(t *testing.T) {
	g := lattice.New2D(5)
	d := NewDecoder(g, Options{})
	if corr := d.Decode(nil); len(corr) != 0 {
		t.Fatalf("empty syndrome produced correction %v", corr)
	}
	if d.Stats.NumDefects != 0 || len(d.Stats.Clusters) != 0 {
		t.Fatalf("unexpected stats for empty syndrome: %+v", d.Stats)
	}
}

func TestDecodeSingleDataError2D(t *testing.T) {
	for _, dist := range []int{3, 5, 7} {
		g := lattice.New2D(dist)
		dec := NewDecoder(g, Options{})
		// Every single data-qubit error must be corrected exactly: residual
		// (error XOR correction) must be trivial on the north cut.
		for q := 0; q < g.NumDataQubits(); q++ {
			e := g.SpatialEdge(int32(q), 0)
			defects := SyndromeOf(g, []int32{e})
			corr := dec.Decode(defects)
			syndromeMatches(t, g, defects, corr)

			var residual noise.Bitset
			ApplyToData(g, corr, &residual)
			residual.Flip(q)
			if residual.Parity(g.NorthCutQubits()) {
				t.Fatalf("d=%d: single error on qubit %d caused a logical error", dist, q)
			}
		}
	}
}

func TestDecodeSingleMeasurementError3D(t *testing.T) {
	g := lattice.New3D(5, 5)
	dec := NewDecoder(g, Options{})
	// A lone measurement error produces two time-adjacent defects; the
	// decoder must fix it without touching any data qubit.
	for tt := 0; tt < g.Rounds-1; tt++ {
		e := g.TemporalEdge(1, 2, tt)
		defects := SyndromeOf(g, []int32{e})
		if len(defects) != 2 {
			t.Fatalf("temporal edge produced %d defects, want 2", len(defects))
		}
		corr := dec.Decode(defects)
		syndromeMatches(t, g, defects, corr)
		var mask noise.Bitset
		ApplyToData(g, corr, &mask)
		if mask.PopCount() != 0 {
			t.Fatalf("measurement-error correction touched data qubits: %v", corr)
		}
	}
}

func TestDecodeAllWeightTwoErrors2D(t *testing.T) {
	g := lattice.New2D(5)
	dec := NewDecoder(g, Options{})
	n := g.NumDataQubits()
	for q1 := 0; q1 < n; q1++ {
		for q2 := q1 + 1; q2 < n; q2++ {
			e1, e2 := g.SpatialEdge(int32(q1), 0), g.SpatialEdge(int32(q2), 0)
			defects := SyndromeOf(g, []int32{e1, e2})
			corr := dec.Decode(defects)
			syndromeMatches(t, g, defects, corr)
			// Any weight-2 error on a distance-5 code must be corrected
			// (UF corrects up to floor((d-1)/2) = 2 errors).
			var residual noise.Bitset
			ApplyToData(g, corr, &residual)
			residual.Flip(q1)
			residual.Flip(q2)
			if residual.Parity(g.NorthCutQubits()) {
				t.Fatalf("weight-2 error (%d,%d) caused a logical error", q1, q2)
			}
		}
	}
}

func TestDecodeRandomErrors3D(t *testing.T) {
	g := lattice.New3D(7, 7)
	dec := NewDecoder(g, Options{})
	s := noise.NewSampler(g, 0.02, 42, 7)
	var trial noise.Trial
	for i := 0; i < 2000; i++ {
		s.Sample(&trial)
		corr := dec.Decode(trial.Defects)
		syndromeMatches(t, g, trial.Defects, corr)
	}
	if s.MeanFaults() == 0 {
		t.Fatal("sampler produced no faults at p=0.02")
	}
}

// TestDecodeArbitraryDefectSets is the central invariant, checked as a
// property: for ANY set of defects (not only ones produced by a physical
// error), the decoder terminates and its correction reproduces the
// syndrome exactly.
func TestDecodeArbitraryDefectSets(t *testing.T) {
	g := lattice.New3D(5, 5)
	dec := NewDecoder(g, Options{})
	f := func(seed uint64, kRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		k := int(kRaw) % (g.V / 2)
		seen := make(map[int32]bool, k)
		var defects []int32
		for len(defects) < k {
			v := int32(rng.IntN(g.V))
			if !seen[v] {
				seen[v] = true
				defects = append(defects, v)
			}
		}
		sortInt32(defects)
		corr := dec.Decode(defects)
		got := SyndromeOf(g, corr)
		return reflect.DeepEqual(got, defects) || (len(got) == 0 && len(defects) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeStatsSanity(t *testing.T) {
	g := lattice.New3D(5, 5)
	dec := NewDecoder(g, Options{})
	// Two adjacent defects from one data error: a single cluster with two
	// defects and one growth round.
	e := g.SpatialEdge(g.HorizontalQubit(1, 1), 2)
	defects := SyndromeOf(g, []int32{e})
	dec.Decode(defects)
	st := dec.Stats
	if st.NumDefects != 2 {
		t.Fatalf("NumDefects = %d, want 2", st.NumDefects)
	}
	if len(st.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(st.Clusters))
	}
	c := st.Clusters[0]
	if c.Defects != 2 || c.Vertices != 2 || c.TouchesBoundary {
		t.Fatalf("unexpected cluster stat: %+v", c)
	}
	if st.GrowthRounds != 1 {
		t.Fatalf("GrowthRounds = %d, want 1", st.GrowthRounds)
	}
	if st.CorrectionEdges != 1 {
		t.Fatalf("CorrectionEdges = %d, want 1", st.CorrectionEdges)
	}
}

func TestDecodeNearBoundary(t *testing.T) {
	g := lattice.New2D(5)
	dec := NewDecoder(g, Options{})
	// A single defect adjacent to the north boundary must be matched to
	// the boundary, not across the lattice.
	defects := []int32{g.VertexID(0, 2, 0)}
	corr := dec.Decode(defects)
	syndromeMatches(t, g, defects, corr)
	if len(corr) != 1 {
		t.Fatalf("boundary defect corrected with %d edges, want 1", len(corr))
	}
	ed := g.Edges[corr[0]]
	if !g.IsBoundary(ed.U) && !g.IsBoundary(ed.V) {
		t.Fatalf("correction edge %+v does not touch the boundary", ed)
	}
	if len(dec.Stats.Clusters) != 1 || !dec.Stats.Clusters[0].TouchesBoundary {
		t.Fatalf("cluster stats should record a boundary cluster: %+v", dec.Stats.Clusters)
	}
}

func TestDecoderAblationVariantsAgreeOnSyndrome(t *testing.T) {
	g := lattice.New3D(5, 5)
	variants := []Options{
		{},
		{DisableWeightedUnion: true},
		{DisablePathCompression: true},
		{DisableWeightedUnion: true, DisablePathCompression: true},
	}
	decs := make([]*Decoder, len(variants))
	for i, o := range variants {
		decs[i] = NewDecoder(g, o)
	}
	s := noise.NewSampler(g, 0.01, 5, 11)
	var trial noise.Trial
	for i := 0; i < 500; i++ {
		s.Sample(&trial)
		for vi, dec := range decs {
			corr := dec.Decode(trial.Defects)
			got := SyndromeOf(g, corr)
			want := trial.Defects
			if !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
				t.Fatalf("variant %d (%+v) produced invalid correction", vi, variants[vi])
			}
		}
	}
}

// TestDecoderReuseIsDeterministic pins Decode's history independence,
// which lets one core decoder serve every stream a goroutine decodes: a
// decoder reused over sampled syndromes from p = 1e-3 (sparse rewinds) to
// 8e-2 (bulk rewinds) returns what a fresh decoder returns — the
// correction edge for edge and in order, and the whole DecodeStats,
// Clusters included — on window, closed 3-D and 2-D graphs, under the
// streaming option set and the default one.
func TestDecoderReuseIsDeterministic(t *testing.T) {
	graphs := []*lattice.Graph{lattice.New3DWindow(5, 5), lattice.New3D(5, 4), lattice.New2D(7)}
	optSets := []Options{{LeanStats: true, ClusterStats: true}, {}}
	var trial noise.Trial
	for gi, g := range graphs {
		for oi, opts := range optSets {
			reused := NewDecoder(g, opts)
			bulk, sparse := 0, 0
			for pi, p := range []float64{1e-3, 1e-2, 3e-2, 8e-2} {
				s := noise.NewSampler(g, p, uint64(gi+1), uint64(10*oi+pi))
				for i := 0; i < 1200; i++ {
					s.Sample(&trial)
					dense := len(reused.touchedEdges)+len(reused.touchedVerts) >= reused.bulkThreshold
					epoch := reused.resetEpoch
					got := reused.Decode(trial.Defects)
					if reused.resetEpoch != epoch {
						if dense {
							bulk++
						} else {
							sparse++
						}
					}
					fresh := NewDecoder(g, opts)
					want := fresh.Decode(trial.Defects)
					if !slices.Equal(got, want) {
						t.Fatalf("graph %d opts %+v p=%g decode %d: reused decoder returned %v, fresh %v",
							gi, opts, p, i, got, want)
					}
					if !sameStats(reused.Stats, fresh.Stats) {
						t.Fatalf("graph %d opts %+v p=%g decode %d: stats differ:\n reused %+v\n fresh  %+v",
							gi, opts, p, i, reused.Stats, fresh.Stats)
					}
				}
			}
			t.Logf("graph %d opts %+v: %d bulk and %d sparse rewinds", gi, opts, bulk, sparse)
			if bulk == 0 || sparse == 0 {
				t.Fatalf("graph %d opts %+v: vacuous run, %d bulk and %d sparse rewinds", gi, opts, bulk, sparse)
			}
		}
	}
}

// sameStats compares two decode profiles; an empty Clusters slice equals a
// nil one.
func sameStats(a, b DecodeStats) bool {
	if !slices.Equal(a.Clusters, b.Clusters) {
		return false
	}
	a.Clusters, b.Clusters = nil, nil
	return reflect.DeepEqual(a, b)
}

func BenchmarkDecode3D(b *testing.B) {
	for _, cfg := range []struct {
		d int
		p float64
	}{{11, 1e-3}, {17, 1e-3}, {25, 1e-3}} {
		g := lattice.New3D(cfg.d, cfg.d)
		dec := NewDecoder(g, Options{})
		s := noise.NewSampler(g, cfg.p, 1, 2)
		var trial noise.Trial
		b.Run(benchName(cfg.d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Sample(&trial)
				dec.Decode(trial.Defects)
			}
		})
	}
}

func benchName(d int) string {
	return "d=" + string(rune('0'+d/10)) + string(rune('0'+d%10))
}

// TestAdjFarBitMatchesDefinition checks NewDecoder's adjacency mirror
// against its definition on every vertex: entry adjBase[v]+s names the far
// endpoint of v's s-th edge e and the bit of e in that endpoint's own
// adjacency row (zero when the far endpoint is the maskless boundary).
func TestAdjFarBitMatchesDefinition(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *lattice.Graph
	}{
		{"2D d=7", lattice.New2D(7)},
		{"3D d=5 r=5", lattice.New3D(5, 5)},
		{"window d=11 W=11", lattice.New3DWindow(11, 11)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			d := NewDecoder(g, Options{})
			b := g.Boundary()
			for v := int32(0); v < int32(g.V); v++ {
				for s, e := range g.AdjacentEdges(v) {
					pos := d.adjBase[v] + int32(s)
					far := g.Other(e, v)
					if d.adjFar[pos] != far {
						t.Fatalf("vertex %d slot %d: far %d, want %d", v, s, d.adjFar[pos], far)
					}
					var want uint16
					if far != b {
						for fs, fe := range g.AdjacentEdges(far) {
							if fe == e {
								want = 1 << uint(fs)
							}
						}
						if want == 0 {
							t.Fatalf("edge %d missing from far vertex %d's row", e, far)
						}
					}
					if d.adjFarBit[pos] != want {
						t.Fatalf("vertex %d slot %d (edge %d, far %d): bit %#x, want %#x", v, s, e, far, d.adjFarBit[pos], want)
					}
				}
			}
		})
	}
}

// BenchmarkNewDecoder measures decoder construction on the streaming
// window graph (d=11, W=11) — the set-up every stream, every closed-graph
// flush decoder and every Monte-Carlo worker pays.
func BenchmarkNewDecoder(b *testing.B) {
	g := lattice.New3DWindow(11, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newDecoderSink = NewDecoder(g, Options{LeanStats: true, ClusterStats: true})
	}
}

var newDecoderSink *Decoder
