package stream

import (
	"testing"

	"afs/internal/lattice"
	"afs/internal/noise"
)

// feed splits a closed-graph trial (T detector layers) into per-layer
// detection events and streams them through the decoder (either the
// Decoder or the pre-rebuild Baseline).
func feed(d pusher, g *lattice.Graph, defects []int32) {
	per := g.LayerVertices()
	layers := make([][]int32, g.Rounds)
	for _, v := range defects {
		t := int(v) / per
		layers[t] = append(layers[t], int32(int(v)%per))
	}
	for _, l := range layers {
		d.PushLayer(l)
	}
}

// verify checks that the committed corrections reproduce exactly the
// detection events of the reference trial, and returns the residual
// data-error mask.
func verify(t *testing.T, g *lattice.Graph, trial *noise.Trial, corr []Correction) noise.Bitset {
	t.Helper()
	per := g.LayerVertices()
	marks := map[int32]bool{}
	toggle := func(v int32) {
		if !g.IsBoundary(v) {
			marks[v] = !marks[v]
		}
	}
	residual := noise.NewBitset(g.NumDataQubits())
	residual.Xor(trial.NetData)
	for _, c := range corr {
		switch c.Kind {
		case lattice.Spatial:
			if c.Round < 0 || c.Round >= g.Rounds {
				t.Fatalf("spatial correction in round %d outside stream", c.Round)
			}
			e := g.Edges[g.SpatialEdge(c.Qubit, c.Round)]
			toggle(e.U)
			toggle(e.V)
			residual.Flip(int(c.Qubit))
		case lattice.Temporal:
			if c.Round < 0 || c.Round >= g.Rounds-1 {
				t.Fatalf("temporal correction in round %d outside stream", c.Round)
			}
			toggle(int32(c.Round*per) + c.Ancilla)
			toggle(int32((c.Round+1)*per) + c.Ancilla)
		}
	}
	for _, v := range trial.Defects {
		marks[v] = !marks[v]
	}
	for v, odd := range marks {
		if odd {
			t.Fatalf("committed corrections do not reproduce the syndrome (vertex %d unbalanced)", v)
		}
	}
	return residual
}

func TestStreamReproducesSyndrome(t *testing.T) {
	const d, T = 5, 20
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.01, 3, 1)
	var trial noise.Trial
	for i := 0; i < 300; i++ {
		s.Sample(&trial)
		dec, err := New(d, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		feed(dec, g, trial.Defects)
		corr := dec.Flush()
		verify(t, g, &trial, corr)
	}
}

func TestStreamVariousWindowGeometries(t *testing.T) {
	const d, T = 4, 13
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.02, 9, 2)
	var trial noise.Trial
	for _, cfg := range []struct{ w, c int }{
		{4, 2}, {4, 1}, {4, 3}, {6, 3}, {2, 1}, {20, 10},
	} {
		for i := 0; i < 100; i++ {
			s.Sample(&trial)
			dec, err := New(d, cfg.w, cfg.c)
			if err != nil {
				t.Fatal(err)
			}
			feed(dec, g, trial.Defects)
			verify(t, g, &trial, dec.Flush())
		}
	}
}

func TestStreamEmptyStream(t *testing.T) {
	dec, err := New(5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if corr := dec.Flush(); len(corr) != 0 {
		t.Fatalf("empty stream produced corrections: %v", corr)
	}
	// Quiet layers produce no corrections either.
	for i := 0; i < 12; i++ {
		dec.PushLayer(nil)
	}
	if corr := dec.Flush(); len(corr) != 0 {
		t.Fatalf("noiseless stream produced corrections: %v", corr)
	}
}

func TestStreamReusableAfterFlush(t *testing.T) {
	const d, T = 4, 8
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.02, 5, 3)
	dec, err := New(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var trial noise.Trial
	for i := 0; i < 50; i++ {
		s.Sample(&trial)
		feed(dec, g, trial.Defects)
		verify(t, g, &trial, dec.Flush())
	}
}

// TestStreamAccuracyComparableToMonolithic: sliding-window decoding is
// slightly weaker than decoding the whole history at once (decisions are
// made with finite context), but at a fixed (d, p) the logical failure
// rates must be the same order of magnitude.
func TestStreamAccuracyComparableToMonolithic(t *testing.T) {
	const d, T = 5, 15
	const p = 0.015
	const trials = 8000
	g := lattice.New3D(d, T)
	cut := g.NorthCutQubits()

	// Monolithic failures: a window larger than the stream never slides,
	// so Flush decodes the full history on a closed graph in one shot.
	s := noise.NewSampler(g, p, 7, 1)
	mono := 0
	{
		decMono, err := New(d, T+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var trial noise.Trial
		for i := 0; i < trials; i++ {
			s.Sample(&trial)
			feed(decMono, g, trial.Defects)
			res := verify(t, g, &trial, decMono.Flush())
			if res.Parity(cut) {
				mono++
			}
		}
	}

	// Streamed failures on the identical trial sequence.
	s = noise.NewSampler(g, p, 7, 1)
	streamed := 0
	{
		dec, err := New(d, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		var trial noise.Trial
		for i := 0; i < trials; i++ {
			s.Sample(&trial)
			feed(dec, g, trial.Defects)
			res := verify(t, g, &trial, dec.Flush())
			if res.Parity(cut) {
				streamed++
			}
		}
	}

	if mono == 0 || streamed == 0 {
		t.Fatalf("expected failures in both modes at p=%g (mono %d, streamed %d)", p, mono, streamed)
	}
	if streamed > 4*mono {
		t.Fatalf("streaming degraded accuracy too much: %d vs %d failures", streamed, mono)
	}
	if streamed < mono/4 {
		t.Fatalf("streaming implausibly better than monolithic: %d vs %d", streamed, mono)
	}
	t.Logf("failures over %d cycles: monolithic %d, streamed %d", trials, mono, streamed)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 0, 0); err == nil {
		t.Error("d=1 accepted")
	}
	if _, err := New(5, 1, 1); err == nil {
		t.Error("window=1 accepted")
	}
	if _, err := New(5, 4, 5); err == nil {
		t.Error("commit>window accepted")
	}
	if _, err := New(5, 4, 4); err == nil {
		t.Error("commit==window accepted (would commit deferred boundary matches)")
	}
	if _, err := New(5, 4, 0); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}
