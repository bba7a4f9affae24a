package afs_test

import (
	"testing"

	"afs"
)

// TestSteadyStateSampleDecodeZeroAllocs audits the Monte-Carlo inner loop:
// after warm-up, drawing a syndrome and decoding it at the paper's design
// point (d=11, a full logical cycle) must not touch the heap. This is the
// property that keeps 10^7-trial sweeps GC-free.
func TestSteadyStateSampleDecodeZeroAllocs(t *testing.T) {
	e := afs.New(11)
	sp := e.NewSampler(1e-3, 42)
	var sy afs.Syndrome
	// Warm-up: let every reused slice reach its steady-state capacity.
	for i := 0; i < 2000; i++ {
		sp.Sample(&sy)
		e.Decode(&sy)
	}
	avg := testing.AllocsPerRun(500, func() {
		sp.Sample(&sy)
		e.Decode(&sy)
	})
	if avg != 0 {
		t.Fatalf("steady-state Sample+Decode allocates %.2f objects/op, want 0", avg)
	}
}

// TestStreamSteadyStatePushZeroAllocs audits the streaming hot path: a
// sliding-window StreamDecoder with an OnCorrection sink, fed pregenerated
// rounds at the design point (d=11, p=1e-3), must push — including the
// window decodes and commits the pushes trigger — without touching the
// heap. This is the property that lets one process decode thousands of
// logical-qubit streams without GC pressure.
func TestStreamSteadyStatePushZeroAllocs(t *testing.T) {
	const d = 11
	dec, err := afs.NewStreamDecoder(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var count uint64
	dec.OnCorrection(func(afs.StreamCorrection) { count++ })

	// Pregenerate rounds so the sampler is out of the measured loop.
	sampler := afs.NewStreamRoundSampler(d, 1e-3, 9)
	rounds := make([][]int32, 4096)
	for i := range rounds {
		rounds[i] = append([]int32(nil), sampler.SampleRound()...)
	}

	for i := 0; i < 2000; i++ { // warm to steady state
		dec.PushRound(rounds[i%len(rounds)])
	}
	avg := testing.AllocsPerRun(500, func() {
		dec.PushRound(rounds[0])
	})
	if avg != 0 {
		t.Fatalf("steady-state PushRound allocates %.2f objects/op, want 0", avg)
	}
	if count == 0 {
		t.Fatal("warm-up committed nothing at p=1e-3")
	}
}

// TestStreamEngineSteadyStateZeroAllocs audits the multi-stream engine's
// round path at 2 workers: a default (hence lane-batched) StreamEngine at
// the design point, once its bit planes, gather lists, and emit buffers
// reach steady-state capacity, must run rounds — sampling, dispatch,
// transpose, word-parallel classification, heavy-lane scatter, commits —
// without touching the heap.
func TestStreamEngineSteadyStateZeroAllocs(t *testing.T) {
	eng, err := afs.NewStreamEngine(afs.StreamEngineConfig{
		Streams: 128, Distance: 11, P: 1e-3, Seed: 13, Workers: 2,
		OnCorrection: func(int, afs.StreamCorrection) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.RunRounds(2000); err != nil { // warm to steady state
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := eng.RunRounds(1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state StreamEngine RunRounds allocates %.2f objects/op, want 0", avg)
	}
}

// TestSteadyStateZeroAllocsNearThreshold repeats the audit at a high error
// rate, where syndromes are dense and every scratch structure is stressed.
func TestSteadyStateZeroAllocsNearThreshold(t *testing.T) {
	e := afs.New(7)
	sp := e.NewSampler(0.02, 7)
	var sy afs.Syndrome
	for i := 0; i < 2000; i++ {
		sp.Sample(&sy)
		e.Decode(&sy)
	}
	avg := testing.AllocsPerRun(500, func() {
		sp.Sample(&sy)
		e.Decode(&sy)
	})
	if avg != 0 {
		t.Fatalf("near-threshold Sample+Decode allocates %.2f objects/op, want 0", avg)
	}
}
