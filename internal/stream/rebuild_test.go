package stream

import (
	"math/rand/v2"
	"slices"
	"testing"

	"afs/internal/core"
	"afs/internal/lattice"
	"afs/internal/noise"
)

// sortCorrections orders a committed-correction list canonically so edge
// sets can be compared regardless of emission order (the rebuilt decoder's
// fast lanes emit a window's corrections in a different order than the
// pre-engine pipeline's full decode).
func sortCorrections(cs []Correction) {
	slices.SortFunc(cs, func(a, b Correction) int {
		if a.Round != b.Round {
			return a.Round - b.Round
		}
		if a.Kind != b.Kind {
			return int(a.Kind) - int(b.Kind)
		}
		if a.Qubit != b.Qubit {
			return int(a.Qubit - b.Qubit)
		}
		return int(a.Ancilla - b.Ancilla)
	})
}

// TestStreamMatchesBaselineExactly is the rebuild's differential harness:
// identical event streams through the pre-engine Baseline and the Decoder
// must commit identical correction multisets, window geometry by window
// geometry. This transitively pins the sorted-list ingestion, the seam
// carry, and the lane route to the seed implementation's decisions.
func TestStreamMatchesBaselineExactly(t *testing.T) {
	for _, cfg := range []struct{ d, T, w, c int }{
		{3, 17, 3, 1}, {4, 13, 4, 2}, {4, 13, 4, 1}, {4, 13, 4, 3},
		{4, 13, 6, 3}, {4, 13, 2, 1}, {5, 21, 5, 2}, {5, 9, 20, 10},
	} {
		g := lattice.New3D(cfg.d, cfg.T)
		s := noise.NewSampler(g, 0.02, 21, uint64(cfg.w*8+cfg.c))
		dec, err := New(cfg.d, cfg.w, cfg.c)
		if err != nil {
			t.Fatal(err)
		}
		bl, err := NewBaseline(cfg.d, cfg.w, cfg.c)
		if err != nil {
			t.Fatal(err)
		}
		var trial noise.Trial
		for i := 0; i < 120; i++ {
			s.Sample(&trial)
			feed(dec, g, trial.Defects)
			feed(bl, g, trial.Defects)

			// Mid-stream: the already-committed prefixes must agree.
			got := append([]Correction(nil), dec.Committed()...)
			want := append([]Correction(nil), bl.Committed()...)
			sortCorrections(got)
			sortCorrections(want)
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d w=%d c=%d trial %d: mid-stream committed diverged:\n new  %v\n base %v",
					cfg.d, cfg.w, cfg.c, i, got, want)
			}

			got = dec.Flush()
			want = bl.Flush()
			sortCorrections(got)
			sortCorrections(want)
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d w=%d c=%d trial %d: flushed corrections diverged:\n new  %v\n base %v",
					cfg.d, cfg.w, cfg.c, i, got, want)
			}
		}
	}
}

// pusher lets the feed helper serve both the rebuilt Decoder and the
// preserved Baseline.
type pusher interface{ PushLayer([]int32) error }

var (
	_ pusher = (*Decoder)(nil)
	_ pusher = (*Baseline)(nil)
)

// TestStreamSinkMatchesRetained: routing corrections through a sink must
// deliver exactly the sequence Committed would have retained.
func TestStreamSinkMatchesRetained(t *testing.T) {
	const d, T = 4, 20
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.02, 5, 8)
	retained, err := New(d, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sunk, err := New(d, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var viaSink []Correction
	sunk.SetSink(func(c Correction) { viaSink = append(viaSink, c) })
	var trial noise.Trial
	for i := 0; i < 60; i++ {
		s.Sample(&trial)
		viaSink = viaSink[:0]
		feed(retained, g, trial.Defects)
		feed(sunk, g, trial.Defects)
		want := retained.Flush()
		if out := sunk.Flush(); out != nil {
			t.Fatalf("Flush with a sink returned %d corrections, want none retained", len(out))
		}
		if len(sunk.Committed()) != 0 {
			t.Fatal("Committed must stay empty under a sink")
		}
		if !slices.Equal(viaSink, want) {
			t.Fatalf("trial %d: sink sequence %v != retained %v", i, viaSink, want)
		}
	}
}

// TestStreamSteadyStateMemoryIsBounded is the regression test for the
// pre-rebuild leak: `buffer = buffer[commit:]` kept every consumed layer's
// backing array reachable for the stream's lifetime. The defect list's
// capacity must stay within one window of vertices and stop growing once
// the stream is warm, and a long steady-state run must not allocate at
// all.
func TestStreamSteadyStateMemoryIsBounded(t *testing.T) {
	const d, w, c = 5, 4, 2
	dec, err := New(d, w, c)
	if err != nil {
		t.Fatal(err)
	}
	var count uint64
	dec.SetSink(func(Correction) { count++ })

	// A deterministic, allocation-free event pattern with realistic density.
	rng := rand.New(rand.NewPCG(2, 7))
	per := d * (d - 1)
	rounds := make([][]int32, 64)
	for i := range rounds {
		for a := 0; a < per; a++ {
			if rng.Float64() < 0.02 {
				rounds[i] = append(rounds[i], int32(a))
			}
		}
	}

	const n = 100_000
	half := 0
	for i := 0; i < n; i++ {
		if i == n/2 {
			half = cap(dec.win)
		}
		dec.PushLayer(rounds[i%len(rounds)])
	}
	if c := cap(dec.win); c > w*dec.per || c != half {
		t.Fatalf("defect list capacity %d (%d at mid-run), want at most %d and no growth over the second half", c, half, w*dec.per)
	}
	if dec.Buffered() >= w {
		t.Fatalf("buffered %d layers, want < window %d", dec.Buffered(), w)
	}
	if dec.committed != nil {
		t.Fatalf("sink mode retained %d corrections", len(dec.committed))
	}
	if count == 0 {
		t.Fatal("100k noisy rounds committed nothing")
	}
	// O(Window) steady state implies a zero-allocation push path.
	i := 0
	avg := testing.AllocsPerRun(300, func() {
		for r := 0; r < w; r++ {
			dec.PushLayer(rounds[i%len(rounds)])
			i++
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state PushLayer allocates %.2f objects per %d rounds, want 0", avg, w)
	}
}

// monolithicFailure decodes the whole trial on the closed graph at once
// and reports whether a logical error remains on the north cut.
func monolithicFailure(g *lattice.Graph, dec *core.Decoder, trial *noise.Trial, cut []int32, mask *noise.Bitset) bool {
	corr := dec.Decode(trial.Defects)
	mask.Resize(g.NumDataQubits())
	mask.Clear()
	core.ApplyToData(g, corr, mask)
	mask.Xor(trial.NetData)
	return mask.Parity(cut)
}

// TestStreamParityTracksMonolithic is the sliding-window accuracy property
// test. Per-trial agreement with a monolithic decode is NOT an invariant —
// a sliding window decides with finite context, and occasionally commits to
// the other logical class (TestStreamAccuracyComparableToMonolithic bounds
// the aggregate cost). What must hold:
//
//  1. for every trial, the committed corrections reproduce the syndrome
//     (checked by verify), and
//  2. the logical-parity outcome agrees with the monolithic decode on all
//     but a small fraction of trials, across distances and window
//     geometries.
func TestStreamParityTracksMonolithic(t *testing.T) {
	for _, cfg := range []struct {
		d, T, w, c int
		p          float64
	}{
		{3, 12, 3, 1, 0.01},
		{4, 13, 4, 2, 0.01},
		{5, 15, 5, 2, 0.008},
		{4, 16, 6, 3, 0.015},
	} {
		const trials = 400
		g := lattice.New3D(cfg.d, cfg.T)
		cut := g.NorthCutQubits()
		mono := core.NewDecoder(g, core.Options{LeanStats: true})
		s := noise.NewSampler(g, cfg.p, 77, uint64(cfg.d))
		dec, err := New(cfg.d, cfg.w, cfg.c)
		if err != nil {
			t.Fatal(err)
		}
		var trial noise.Trial
		var mask noise.Bitset
		mismatch := 0
		for i := 0; i < trials; i++ {
			s.Sample(&trial)
			feed(dec, g, trial.Defects)
			res := verify(t, g, &trial, dec.Flush())
			streamed := res.Parity(cut)
			if streamed != monolithicFailure(g, mono, &trial, cut, &mask) {
				mismatch++
			}
		}
		if mismatch > trials/10 {
			t.Errorf("d=%d w=%d c=%d p=%g: %d/%d trials changed logical outcome vs monolithic",
				cfg.d, cfg.w, cfg.c, cfg.p, mismatch, trials)
		}
	}
}

// TestStreamMonolithicWindowIsExact: when the window covers the whole
// stream it never slides, so Flush decodes the identical closed graph a
// direct core decode uses — the correction edge sets must match exactly,
// not just in logical outcome.
func TestStreamMonolithicWindowIsExact(t *testing.T) {
	const d, T = 4, 11
	g := lattice.Cached3D(d, T)
	mono := core.NewDecoder(g, core.Options{})
	s := noise.NewSampler(g, 0.02, 13, 2)
	dec, err := New(d, T+5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var trial noise.Trial
	for i := 0; i < 200; i++ {
		s.Sample(&trial)
		feed(dec, g, trial.Defects)
		got := correctionEdges(t, g, dec.Flush())
		want := append([]int32(nil), mono.Decode(trial.Defects)...)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: streamed edges %v != monolithic %v", i, got, want)
		}
	}
}

// correctionEdges translates committed corrections back to edge indices on
// the closed graph g, sorted.
func correctionEdges(t *testing.T, g *lattice.Graph, corr []Correction) []int32 {
	t.Helper()
	out := make([]int32, 0, len(corr))
	for _, c := range corr {
		switch c.Kind {
		case lattice.Spatial:
			out = append(out, g.SpatialEdge(c.Qubit, c.Round))
		case lattice.Temporal:
			r := int(c.Ancilla) / g.Distance
			col := int(c.Ancilla) % g.Distance
			out = append(out, g.TemporalEdge(r, col, c.Round))
		default:
			t.Fatalf("unknown correction kind %v", c.Kind)
		}
	}
	slices.Sort(out)
	return out
}
