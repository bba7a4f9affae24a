package stream

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"afs/internal/core"
	"afs/internal/faults"
	"afs/internal/lattice"
	"afs/internal/noise"
)

// blankLayers returns trial defects with the given layers erased (their
// detection events removed), plus the per-layer event lists for feeding.
func blankLayers(g *lattice.Graph, defects []int32, erase map[int]bool) (blanked []int32, layers [][]int32) {
	per := g.LayerVertices()
	layers = make([][]int32, g.Rounds)
	for _, v := range defects {
		t := int(v) / per
		if erase[t] {
			continue
		}
		layers[t] = append(layers[t], int32(int(v)%per))
		blanked = append(blanked, v)
	}
	return blanked, layers
}

// TestStreamDoubleFlush: a second Flush on an already-flushed decoder is a
// no-op, and the decoder decodes a fresh stream correctly afterwards.
func TestStreamDoubleFlush(t *testing.T) {
	const d, T = 4, 12
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.02, 11, 4)
	dec, err := New(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var trial noise.Trial
	s.Sample(&trial)
	feed(dec, g, trial.Defects)
	verify(t, g, &trial, dec.Flush())
	if corr := dec.Flush(); len(corr) != 0 {
		t.Fatalf("second Flush produced %d corrections", len(corr))
	}
	if dec.Buffered() != 0 {
		t.Fatalf("double-flushed decoder still buffers %d layers", dec.Buffered())
	}
	s.Sample(&trial)
	feed(dec, g, trial.Defects)
	verify(t, g, &trial, dec.Flush())
}

// TestStreamAllErasedWindow: a window consisting entirely of erased rounds
// must decode cleanly (to nothing) and leave the decoder healthy.
func TestStreamAllErasedWindow(t *testing.T) {
	const d = 4
	dec, err := New(d, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*d; i++ { // several full windows of pure erasure
		dec.PushErased()
	}
	if corr := dec.Flush(); len(corr) != 0 {
		t.Fatalf("all-erased stream produced corrections: %v", corr)
	}
	// The decoder must still decode real data afterwards.
	const T = 8
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.02, 17, 5)
	var trial noise.Trial
	s.Sample(&trial)
	feed(dec, g, trial.Defects)
	verify(t, g, &trial, dec.Flush())
}

// TestStreamErasedMatchesEmptyLayer: an erased round carries no detection
// events, so its committed corrections must be bit-identical to pushing an
// empty layer at the same position — erasure changes bookkeeping, never the
// decode.
func TestStreamErasedMatchesEmptyLayer(t *testing.T) {
	const d, T = 4, 13
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.02, 23, 6)
	a, err := New(d, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	erase := map[int]bool{2: true, 5: true, 6: true, 11: true}
	var trial noise.Trial
	for i := 0; i < 60; i++ {
		s.Sample(&trial)
		_, layers := blankLayers(g, trial.Defects, erase)
		for tl, l := range layers {
			if erase[tl] {
				a.PushErased()
				if err := b.PushLayer(nil); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := a.PushLayer(l); err != nil {
				t.Fatal(err)
			}
			if err := b.PushLayer(l); err != nil {
				t.Fatal(err)
			}
		}
		got, want := a.Flush(), b.Flush()
		sortCorrections(got)
		sortCorrections(want)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: erased rounds decoded differently from empty rounds:\n erased %v\n empty  %v", i, got, want)
		}
	}
}

// TestStreamMonolithicParityUnderErasures: with a window larger than the
// stream, decoding under erasures must match the core decoder run on the
// blanked defect list exactly, edge for edge — the stream layer adds no
// decisions of its own.
func TestStreamMonolithicParityUnderErasures(t *testing.T) {
	const d, T = 4, 11
	g := lattice.Cached3D(d, T)
	mono := core.NewDecoder(g, core.Options{})
	s := noise.NewSampler(g, 0.02, 29, 7)
	dec, err := New(d, T+5, 1)
	if err != nil {
		t.Fatal(err)
	}
	erase := map[int]bool{1: true, 4: true, 8: true}
	var trial noise.Trial
	for i := 0; i < 150; i++ {
		s.Sample(&trial)
		blanked, layers := blankLayers(g, trial.Defects, erase)
		for tl, l := range layers {
			if erase[tl] {
				dec.PushErased()
				continue
			}
			if err := dec.PushLayer(l); err != nil {
				t.Fatal(err)
			}
		}
		got := correctionEdges(t, g, dec.Flush())
		want := append([]int32(nil), mono.Decode(blanked)...)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: streamed edges %v != monolithic-on-blanked %v", i, got, want)
		}
	}
}

// TestStreamSlidingParityUnderErasures: a sliding window over a stream with
// erased rounds must still commit corrections that reproduce the (blanked)
// syndrome exactly — the erasure gap never leaves an unexplained event.
func TestStreamSlidingParityUnderErasures(t *testing.T) {
	const d, T = 5, 20
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.015, 31, 8)
	dec, err := New(d, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	erase := map[int]bool{3: true, 9: true, 10: true, 16: true}
	var trial noise.Trial
	for i := 0; i < 120; i++ {
		s.Sample(&trial)
		blanked, layers := blankLayers(g, trial.Defects, erase)
		for tl, l := range layers {
			if erase[tl] {
				dec.PushErased()
				continue
			}
			if err := dec.PushLayer(l); err != nil {
				t.Fatal(err)
			}
		}
		// The decoder only saw the blanked stream, so verification runs
		// against a trial carrying the blanked defect list.
		bt := trial
		bt.Defects = blanked
		verify(t, g, &bt, dec.Flush())
	}
}

// TestStreamReuseAfterDegradedCommit: a deadline so tight every window
// overruns forces the degraded single-layer commit path; the decoder must
// keep decoding correctly through it, account every overrun, and run the
// next stream cleanly after Flush.
func TestStreamReuseAfterDegradedCommit(t *testing.T) {
	const d, T = 4, 12
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.03, 37, 9)
	dec, err := NewRobust(d, d, 0, Robust{DeadlineNS: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	var trial noise.Trial
	for i := 0; i < 40; i++ {
		s.Sample(&trial)
		feed(dec, g, trial.Defects)
		verify(t, g, &trial, dec.Flush())
	}
	rep := dec.Report()
	if rep.Timeouts == 0 {
		t.Fatal("a 1e-9 ns deadline produced no timeouts")
	}
	if rep.Timeouts != rep.DegradedCommits {
		t.Fatalf("timeouts %d != degraded commits %d", rep.Timeouts, rep.DegradedCommits)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("ledger inconsistent after degraded commits: %v", err)
	}
	// The flushed decoder decodes the next stream correctly.
	s.Sample(&trial)
	feed(dec, g, trial.Defects)
	verify(t, g, &trial, dec.Flush())
}

// TestStreamBackpressureSheds: enormous injected service time with a small
// queue cap must trigger the shed-oldest policy, account every shed round,
// and never wedge the stream.
func TestStreamBackpressureSheds(t *testing.T) {
	const d, T = 4, 40
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.02, 41, 10)
	dec, err := NewRobust(d, d, 0, Robust{QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	var trial noise.Trial
	s.Sample(&trial)
	per := g.LayerVertices()
	layers := make([][]int32, T)
	for _, v := range trial.Defects {
		layers[int(v)/per] = append(layers[int(v)/per], int32(int(v)%per))
	}
	for _, l := range layers {
		dec.AddPenaltyNS(1e6) // each window decodes ~2500 rounds late
		if err := dec.PushLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	dec.Flush()
	rep := dec.Report()
	if rep.ShedRounds == 0 {
		t.Fatal("overloaded queue shed nothing")
	}
	if rep.BacklogSheds == 0 {
		t.Fatal("shedding episodes not counted")
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("ledger inconsistent after shedding: %v", err)
	}
	// The decoder survives the overload and decodes a calm stream correctly.
	s.Sample(&trial)
	feed(dec, g, trial.Defects)
	verify(t, g, &trial, dec.Flush())
}

func TestNewRobustValidation(t *testing.T) {
	if _, err := NewRobust(4, 0, 0, Robust{DeadlineNS: -1}); err == nil {
		t.Error("negative deadline accepted")
	}
	if _, err := NewRobust(4, 0, 0, Robust{QueueCap: -1}); err == nil {
		t.Error("negative queue cap accepted")
	}
	if _, err := NewRobust(4, 0, 0, Robust{DeadlineNS: 350}); err != nil {
		t.Errorf("NewRobust rejected a valid configuration: %v", err)
	}
}

// TestStreamPushLayerRejectsOutOfRange: malformed input returns an error
// before any state changes — the decoder stays usable.
func TestStreamPushLayerRejectsOutOfRange(t *testing.T) {
	const d, T = 4, 8
	dec, err := New(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	per := int32(d * (d - 1))
	for _, bad := range [][]int32{{-1}, {per}, {0, 3, per + 7}} {
		if err := dec.PushLayer(bad); err == nil {
			t.Fatalf("out-of-range events %v accepted", bad)
		}
		if dec.Buffered() != 0 {
			t.Fatalf("rejected push buffered a layer (events %v)", bad)
		}
	}
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.02, 43, 11)
	var trial noise.Trial
	s.Sample(&trial)
	feed(dec, g, trial.Defects)
	verify(t, g, &trial, dec.Flush())
}

// TestEngineZeroRoundBatch: a zero-round batch is a no-op, not an error,
// and a closed engine reports misuse instead of deadlocking or panicking.
func TestEngineZeroRoundBatch(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Streams: 3, Distance: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunRounds(0, nil); err != nil {
		t.Fatalf("zero-round batch errored: %v", err)
	}
	if err := eng.RunRounds(-5, nil); err != nil {
		t.Fatalf("negative-round batch errored: %v", err)
	}
	eng.Close()
	if err := eng.RunRounds(0, nil); err == nil {
		t.Error("zero-round batch on a closed engine accepted")
	}
	if err := eng.RunRounds(2, func(int, int) []int32 { return nil }); err == nil {
		t.Error("batch on a closed engine accepted")
	}
	if err := eng.PushRound(make([][]int32, 3)); err == nil {
		t.Error("PushRound on a closed engine accepted")
	}
	if err := eng.Flush(); err == nil {
		t.Error("Flush on a closed engine accepted")
	}
}

// TestEnginePushRoundMismatch: a mismatched event-list length is an error
// (the seed panicked here), and the engine keeps working afterwards.
func TestEnginePushRoundMismatch(t *testing.T) {
	const streams, d = 3, 4
	eng, err := NewEngine(EngineConfig{Streams: streams, Distance: d, Workers: 2,
		Sink: func(int, Correction) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.PushRound(make([][]int32, streams+1)); err == nil {
		t.Fatal("mismatched PushRound accepted")
	}
	if err := eng.PushRound(make([][]int32, streams-1)); err == nil {
		t.Fatal("short PushRound accepted")
	}
	if err := eng.PushRound(make([][]int32, streams)); err != nil {
		t.Fatalf("well-formed PushRound errored after rejected ones: %v", err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineStickyStreamError: one stream fed garbage is poisoned — its
// error is reported by the batch and again by later batches — while the
// other streams keep decoding; Flush clears the poison.
func TestEngineStickyStreamError(t *testing.T) {
	const streams, d, rounds = 4, 4, 40
	out := make([][]Correction, streams)
	eng, err := NewEngine(EngineConfig{Streams: streams, Distance: d, Workers: 2,
		Sink: func(i int, c Correction) { out[i] = append(out[i], c) }})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	samplers := make([]*noise.RoundSampler, streams)
	for i := range samplers {
		samplers[i] = noise.NewRoundSampler(d, 0.02, 47, uint64(i)+1)
	}
	bad := []int32{-7}
	if err := eng.RunRounds(rounds, func(stream, round int) []int32 {
		if stream == 1 && round == 3 {
			return bad
		}
		return samplers[stream].SampleRound()
	}); err == nil {
		t.Fatal("poisoned stream reported no error")
	}
	if err := eng.RunRounds(1, func(stream, _ int) []int32 { return nil }); err == nil {
		t.Fatal("sticky error not re-reported by the next batch")
	}
	if err := eng.Flush(); err == nil {
		t.Fatal("Flush did not surface the sticky error")
	}
	if err := eng.Flush(); err != nil {
		t.Fatalf("sticky error survived Flush: %v", err)
	}
	// The healthy streams match solo decoders over the same rounds.
	for _, i := range []int{0, 2, 3} {
		dec, err := New(d, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := noise.NewRoundSampler(d, 0.02, 47, uint64(i)+1)
		for r := 0; r < rounds; r++ {
			if err := dec.PushLayer(s.SampleRound()); err != nil {
				t.Fatal(err)
			}
		}
		want := dec.Flush()
		if !slices.Equal(out[i], want) {
			t.Fatalf("healthy stream %d diverged from a solo decoder after a sibling was poisoned", i)
		}
	}
}

// TestEnginePushRoundPoisonedFirstStream: a poisoned stream 0 stops
// ingesting, and the healthy streams must still decode every window in the
// round that fills it — a lane engine's deferred window must not wait for
// the stream's next round.
func TestEnginePushRoundPoisonedFirstStream(t *testing.T) {
	const streams, d, rounds = 3, 4, 40
	eng, err := NewEngine(EngineConfig{Streams: streams, Distance: d, Workers: 2,
		Sink: func(int, Correction) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	samplers := make([]*noise.RoundSampler, streams)
	for i := range samplers {
		samplers[i] = noise.NewRoundSampler(d, 0.02, 53, uint64(i)+1)
	}
	events := make([][]int32, streams)
	for r := 0; r < rounds; r++ {
		for i := range events {
			events[i] = samplers[i].SampleRound()
		}
		if r == 1 {
			events[0] = []int32{-1}
		}
		if err := eng.PushRound(events); (err != nil) != (r >= 1) {
			t.Fatalf("round %d: error %v, want the poisoned stream's error from round 1 on", r, err)
		}
		for i := 1; i < streams; i++ {
			if eng.Decoder(i).pending {
				t.Fatalf("round %d: stream %d left a filled window undecoded", r, i)
			}
		}
	}
}

// TestEngineCloseWaitsForWorkers: Close must join the helper goroutines,
// spinning or parked — repeated create/run/close cycles, through RunRounds
// or PushRound, and a Close after the engine has sat idle long enough for
// every helper to park, leave the goroutine count where it started.
func TestEngineCloseWaitsForWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	newEngine := func() *Engine {
		eng, err := NewEngine(EngineConfig{Streams: 8, Distance: 4, Workers: 8,
			Sink: func(int, Correction) {}})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for i := 0; i < 10; i++ {
		eng := newEngine()
		if err := eng.RunRounds(12, func(int, int) []int32 { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		eng.Close()
	}
	events := make([][]int32, 8)
	for i := 0; i < 10; i++ {
		eng := newEngine()
		for r := 0; r < 12; r++ {
			if err := eng.PushRound(events); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		eng.Close()
	}
	eng := newEngine()
	var parks uint64
	if eng.parks != nil {
		parks = eng.parks.Value()
	}
	if err := eng.PushRound(events); err != nil {
		t.Fatal(err)
	}
	parked := func() bool {
		for w := 1; w < eng.Workers(); w++ {
			if !eng.waits[w].parked.Load() {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !parked() {
		if time.Now().After(deadline) {
			t.Fatal("idle helpers never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if eng.parks != nil && eng.parks.Value()-parks < uint64(eng.Workers()-1) {
		t.Fatalf("%d parks counted, want at least one per idle helper (%d)", eng.parks.Value()-parks, eng.Workers()-1)
	}
	eng.Close()
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after 21 engine lifecycles",
				before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// runChaosEngine drives a fleet under injected faults and a deadline and
// returns the committed corrections plus the merged fault ledger.
func runChaosEngine(t *testing.T, workers int) ([][]Correction, faults.Report) {
	t.Helper()
	const streams, d, rounds = 6, 5, 400
	out := make([][]Correction, streams)
	eng, err := NewEngine(EngineConfig{
		Streams: streams, Distance: d, Workers: workers,
		Sink:   func(i int, c Correction) { out[i] = append(out[i], c) },
		Robust: Robust{DeadlineNS: 350, QueueCap: 8},
		Chaos: &faults.Config{
			Seed:     1234,
			DropRate: 0.02, DuplicateRate: 0.01, ReorderRate: 0.01,
			CorruptRate: 0.02, StallRate: 0.005,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	samplers := make([]*noise.RoundSampler, streams)
	for i := range samplers {
		samplers[i] = noise.NewRoundSampler(d, 0.01, 53, uint64(i)*0x9e37+1)
	}
	if err := eng.RunRounds(rounds, func(stream, _ int) []int32 {
		return samplers[stream].SampleRound()
	}); err != nil {
		t.Fatal(err)
	}
	rep := eng.FaultReport()
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	return out, rep
}

// TestEngineChaosDeterministicAcrossWorkerCounts is the tentpole's
// acceptance criterion: a fixed-seed chaos run — faults, deadlines,
// backpressure and all — is bit-identical for any worker count, down to the
// merged fault ledger.
func TestEngineChaosDeterministicAcrossWorkerCounts(t *testing.T) {
	want, wantRep := runChaosEngine(t, 1)
	if wantRep.Injected.Link() == 0 {
		t.Fatal("chaos run injected no link faults")
	}
	if err := wantRep.Check(); err != nil {
		t.Fatalf("fault ledger inconsistent: %v", err)
	}
	for _, workers := range []int{2, 3, 6} {
		got, gotRep := runChaosEngine(t, workers)
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d stream %d: chaos corrections diverged (%d vs %d)",
					workers, i, len(got[i]), len(want[i]))
			}
		}
		if gotRep != wantRep {
			t.Fatalf("workers=%d: fault ledger diverged:\n got  %v\n want %v", workers, gotRep, wantRep)
		}
	}
}

// TestStreamRobustZeroAlloc: the always-hardened configuration — CRC
// channel (fault-free), deadline accounting, backpressure — must allocate
// nothing per round in steady state, like the plain push path.
func TestStreamRobustZeroAlloc(t *testing.T) {
	const d = 11
	for _, tc := range []struct {
		name string
		cfg  faults.Config
	}{
		{"perfect-wire", faults.Config{Seed: 7}},
		{"forced-framing", faults.Config{Seed: 7, ForceFraming: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec, err := NewRobust(d, d, 0, Robust{DeadlineNS: 350, QueueCap: 16})
			if err != nil {
				t.Fatal(err)
			}
			dec.SetSink(func(Correction) {})
			ch := faults.NewChannel(d*(d-1), tc.cfg)
			s := noise.NewRoundSampler(d, 1e-3, 59, 12)
			rounds := make([][]int32, 1024)
			for i := range rounds {
				rounds[i] = append([]int32(nil), s.SampleRound()...)
			}
			push := func(i int) {
				delivered, erased, pen := ch.Transfer(rounds[i%len(rounds)])
				dec.AddPenaltyNS(pen)
				if erased {
					dec.PushErased()
					return
				}
				if err := dec.PushLayer(delivered); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4*d; i++ { // reach steady state
				push(i)
			}
			n := 0
			if avg := testing.AllocsPerRun(2000, func() { push(n); n++ }); avg != 0 {
				t.Fatalf("hardened push path allocates %.2f allocs/round in steady state", avg)
			}
		})
	}
}
