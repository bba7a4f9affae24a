package stream

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"afs/internal/noise"
)

// runEngine drives an L-stream engine for the given rounds with seeded
// per-stream samplers and returns each stream's committed corrections
// (flushed), collected through per-stream sinks.
func runEngine(t *testing.T, streams, workers, d, w, c, rounds int) [][]Correction {
	t.Helper()
	out := make([][]Correction, streams)
	eng, err := NewEngine(EngineConfig{
		Streams: streams, Distance: d, Window: w, Commit: c, Workers: workers,
		Sink: func(stream int, corr Correction) {
			out[stream] = append(out[stream], corr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	samplers := seededSamplers(streams, d)
	eng.RunRounds(rounds, func(stream, _ int) []int32 {
		return samplers[stream].SampleRound()
	})
	eng.Flush()
	return out
}

// TestEngineDeterministicAcrossWorkerCounts is the acceptance criterion for
// the multi-stream engine: with a fixed seed, results must be bit-identical
// no matter how many workers decode the fleet.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	const streams, d, rounds = 7, 5, 200
	want := runEngine(t, streams, 1, d, d, 0, rounds)
	for _, workers := range []int{2, 3, 5, 16} {
		got := runEngine(t, streams, workers, d, d, 0, rounds)
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d stream %d: %d corrections vs %d with workers=1 (or contents differ)",
					workers, i, len(got[i]), len(want[i]))
			}
		}
	}
}

// TestEngineMatchesIndividualDecoders: the engine must be a pure fan-out —
// every stream's output identical to running its Decoder alone on the same
// event sequence.
func TestEngineMatchesIndividualDecoders(t *testing.T) {
	const streams, d, w, c, rounds = 5, 4, 4, 2, 300
	got := runEngine(t, streams, 3, d, w, c, rounds)
	for i := 0; i < streams; i++ {
		dec, err := New(d, w, c)
		if err != nil {
			t.Fatal(err)
		}
		s := noise.NewRoundSampler(d, 0.01, 42, uint64(i)*0x9e37+1)
		for r := 0; r < rounds; r++ {
			dec.PushLayer(s.SampleRound())
		}
		want := dec.Flush()
		if !slices.Equal(got[i], want) {
			t.Fatalf("stream %d: engine output diverged from a solo decoder (%d vs %d corrections)",
				i, len(got[i]), len(want))
		}
	}
}

// TestEnginePushRoundMatchesRunRounds: the two ingestion APIs must commit
// identical corrections, including PushRound's serial fast path for
// non-decode rounds.
func TestEnginePushRoundMatchesRunRounds(t *testing.T) {
	const streams, d, rounds = 4, 4, 250
	want := runEngine(t, streams, 2, d, d, 0, rounds)

	out := make([][]Correction, streams)
	eng, err := NewEngine(EngineConfig{
		Streams: streams, Distance: d, Workers: 2,
		Sink: func(stream int, c Correction) { out[stream] = append(out[stream], c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	samplers := make([]*noise.RoundSampler, streams)
	for i := range samplers {
		samplers[i] = noise.NewRoundSampler(d, 0.01, 42, uint64(i)*0x9e37+1)
	}
	events := make([][]int32, streams)
	for r := 0; r < rounds; r++ {
		for i := range events {
			events[i] = samplers[i].SampleRound()
		}
		eng.PushRound(events)
	}
	eng.Flush()
	for i := range want {
		if !slices.Equal(out[i], want[i]) {
			t.Fatalf("stream %d: PushRound output diverged from RunRounds", i)
		}
	}
}

// TestEngineRetainedMode: without a sink the engine retains per-stream
// corrections and counts them.
func TestEngineRetainedMode(t *testing.T) {
	const streams, d, rounds = 3, 4, 200
	eng, err := NewEngine(EngineConfig{Streams: streams, Distance: d, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	samplers := make([]*noise.RoundSampler, streams)
	for i := range samplers {
		samplers[i] = noise.NewRoundSampler(d, 0.02, 9, uint64(i)+1)
	}
	eng.RunRounds(rounds, func(stream, _ int) []int32 {
		return samplers[stream].SampleRound()
	})
	eng.Flush()
	var sum uint64
	for i := 0; i < streams; i++ {
		sum += uint64(len(eng.Committed(i)))
	}
	if sum == 0 {
		t.Fatal("noisy fleet committed nothing")
	}
	if eng.TotalCorrections() != sum {
		t.Fatalf("TotalCorrections %d != retained %d", eng.TotalCorrections(), sum)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(EngineConfig{Streams: 0, Distance: 5}); err == nil {
		t.Error("zero streams accepted")
	}
	if _, err := NewEngine(EngineConfig{Streams: 2, Distance: 1}); err == nil {
		t.Error("invalid distance accepted")
	}
	eng, err := NewEngine(EngineConfig{Streams: 2, Distance: 4, Workers: 9})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Workers() != 2 {
		t.Errorf("workers not clamped to streams: %d", eng.Workers())
	}
	if eng.Streams() != 2 {
		t.Errorf("Streams() = %d", eng.Streams())
	}
	if eng.Decoder(1) == nil {
		t.Error("Decoder(1) nil")
	}
	eng.Close()
	eng.Close() // idempotent
}

// TestEnginePushRoundZeroAllocs audits the round path perfbench's
// stream-engine workload drives: PushRound on a 2-partition engine at the
// design point (128 streams, d=11, p=1e-3), once warm, allocates nothing
// across window and non-window rounds — no per-call closure, no per-round
// handoff state.
func TestEnginePushRoundZeroAllocs(t *testing.T) {
	const streams, d, pregen = 128, 11, 256
	var count uint64
	eng, err := NewEngine(EngineConfig{
		Streams: streams, Distance: d, Workers: 2,
		Sink: func(int, Correction) { atomic.AddUint64(&count, 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rounds := make([][][]int32, pregen)
	for r := range rounds {
		rounds[r] = make([][]int32, streams)
	}
	for i := 0; i < streams; i++ {
		s := noise.NewRoundSampler(d, 1e-3, 61, uint64(i)+1)
		for r := range rounds {
			rounds[r][i] = append([]int32(nil), s.SampleRound()...)
		}
	}
	n := 0
	push := func() {
		if err := eng.PushRound(rounds[n%pregen]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for n < 2*pregen { // warm to steady state
		push()
	}
	// One run is a commit stride, C = 5 rounds, of which one closes a
	// window: AllocsPerRun truncates its average, so a run must hold the
	// window round for one allocation per window to show.
	stride := func() {
		for k := 0; k < 5; k++ {
			push()
		}
	}
	if avg := testing.AllocsPerRun(100, stride); avg != 0 {
		t.Fatalf("steady-state PushRound allocates %.2f objects per 5 rounds at 2 workers, want 0", avg)
	}
	if atomic.LoadUint64(&count) == 0 {
		t.Fatal("vacuous run: no corrections committed")
	}
}

// TestEngineProgressOnOneProcessor: with more partitions than processors,
// the spinning handoffs must yield, so PushRound, RunRounds and Flush all
// complete under GOMAXPROCS(1) with three partitions, and the corrections
// equal a one-partition engine's.
func TestEngineProgressOnOneProcessor(t *testing.T) {
	const streams, d, rounds = 9, 5, 120
	run := func(workers int) [][]Correction {
		out := make([][]Correction, streams)
		eng, err := NewEngine(EngineConfig{
			Streams: streams, Distance: d, Workers: workers,
			Sink: func(stream int, c Correction) { out[stream] = append(out[stream], c) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if eng.Workers() != workers {
			t.Fatalf("engine runs %d partitions, want %d", eng.Workers(), workers)
		}
		samplers := seededSamplers(streams, d)
		if err := eng.RunRounds(rounds, func(stream, _ int) []int32 {
			return samplers[stream].SampleRound()
		}); err != nil {
			t.Fatal(err)
		}
		events := make([][]int32, streams)
		for r := 0; r < rounds; r++ {
			for i := range events {
				events[i] = samplers[i].SampleRound()
			}
			if err := eng.PushRound(events); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got := run(3)
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("stream %d: %d corrections under GOMAXPROCS(1) at 3 partitions, %d at 1 (or contents differ)",
				i, len(got[i]), len(want[i]))
		}
	}
}

// BenchmarkStreamDecoder measures single-stream steady-state throughput of
// the rebuilt decoder at the paper's operating point.
func BenchmarkStreamDecoder(b *testing.B) {
	benchSingle(b, func() pusher {
		d, err := New(11, 11, 0)
		if err != nil {
			b.Fatal(err)
		}
		d.SetSink(func(Correction) {})
		return d
	})
}

// BenchmarkStreamBaseline measures the pre-rebuild decoder on the identical
// workload, for interleaved comparison with BenchmarkStreamDecoder.
func BenchmarkStreamBaseline(b *testing.B) {
	benchSingle(b, func() pusher {
		d, err := NewBaseline(11, 11, 0)
		if err != nil {
			b.Fatal(err)
		}
		return d
	})
}

func benchSingle(b *testing.B, mk func() pusher) {
	const d = 11
	s := noise.NewRoundSampler(d, 1e-3, 1, 2)
	rounds := make([][]int32, 4096)
	for i := range rounds {
		rounds[i] = append([]int32(nil), s.SampleRound()...)
	}
	dec := mk()
	for i := 0; i < 2*d; i++ { // warm to steady state
		dec.PushLayer(rounds[i%len(rounds)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.PushLayer(rounds[i%len(rounds)])
	}
}

// BenchmarkStreamEngine measures aggregate fleet throughput (rounds/s across
// all streams) at a few fleet sizes.
func BenchmarkStreamEngine(b *testing.B) {
	for _, streams := range []int{16, 256} {
		b.Run(fmt.Sprintf("L=%d", streams), func(b *testing.B) {
			const d = 11
			eng, err := NewEngine(EngineConfig{
				Streams: streams, Distance: d,
				Sink: func(int, Correction) {},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			samplers := make([]*noise.RoundSampler, streams)
			for i := range samplers {
				samplers[i] = noise.NewRoundSampler(d, 1e-3, 3, uint64(i)*0x9e37+1)
			}
			feed := func(stream, _ int) []int32 { return samplers[stream].SampleRound() }
			eng.RunRounds(2*d, feed) // warm
			b.ResetTimer()
			eng.RunRounds(b.N, feed)
			b.StopTimer()
			b.ReportMetric(float64(b.N)*float64(streams)/b.Elapsed().Seconds(), "stream-rounds/s")
		})
	}
}
