package stream

import (
	"math/rand"
	"slices"
	"testing"

	"afs/internal/faults"
	"afs/internal/noise"
)

// runLaneEngine drives a non-robust (hence lane-batched) engine over seeded
// per-stream samplers, with an optional chaos config, and returns each
// stream's flushed corrections.
func runLaneEngine(t *testing.T, streams, workers, d, w, c, rounds int, chaos *faults.Config) [][]Correction {
	t.Helper()
	out := make([][]Correction, streams)
	eng, err := NewEngine(EngineConfig{
		Streams: streams, Distance: d, Window: w, Commit: c, Workers: workers,
		Chaos: chaos,
		Sink: func(stream int, corr Correction) {
			out[stream] = append(out[stream], corr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.lane {
		t.Fatal("non-robust engine does not lane-batch")
	}
	samplers := seededSamplers(streams, d)
	if err := eng.RunRounds(rounds, func(stream, _ int) []int32 {
		return samplers[stream].SampleRound()
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	return out
}

// runSoloDecoders is runLaneEngine's oracle: each stream decoded by its own
// Decoder at fill, fed the same sampler and — under chaos — its own
// faults.Channel seeded by faults.StreamSeed, driven as Engine.deliverRound
// drives it.
func runSoloDecoders(t *testing.T, streams, d, w, c, rounds int, chaos *faults.Config) [][]Correction {
	t.Helper()
	out := make([][]Correction, streams)
	samplers := seededSamplers(streams, d)
	for i := range out {
		dec, err := New(d, w, c)
		if err != nil {
			t.Fatal(err)
		}
		var ch *faults.Channel
		if chaos != nil {
			cc := *chaos
			cc.Seed = faults.StreamSeed(chaos.Seed, i)
			ch = faults.NewChannel(d*(d-1), cc)
		}
		feedRounds(t, dec, samplers[i], ch, rounds)
		out[i] = dec.Flush()
	}
	return out
}

// seededSamplers returns the per-stream round samplers the engine identity
// tests feed: p=0.01, seed 42, one stream id per stream.
func seededSamplers(streams, d int) []*noise.RoundSampler {
	samplers := make([]*noise.RoundSampler, streams)
	for i := range samplers {
		samplers[i] = noise.NewRoundSampler(d, 0.01, 42, uint64(i)*0x9e37+1)
	}
	return samplers
}

// TestLaneEngineIdentity is the engine-level identity contract: the
// lane-batched engine must commit bit-identical corrections to solo
// per-stream decoders for every worker count and fleet size — full 64-lane
// groups, partial groups, and single-lane remainders alike.
func TestLaneEngineIdentity(t *testing.T) {
	for _, d := range []int{3, 5} {
		const rounds = 120
		for _, streams := range []int{1, 2, 5, 64, 65, 130} {
			want := runSoloDecoders(t, streams, d, d, 0, rounds, nil)
			for _, workers := range []int{1, 2, 3} {
				got := runLaneEngine(t, streams, workers, d, d, 0, rounds, nil)
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("d=%d L=%d workers=%d stream %d: lane corrections diverge from a solo decoder (%d vs %d)",
							d, streams, workers, i, len(got[i]), len(want[i]))
					}
				}
			}
		}
	}
}

// TestLaneEngineIdentityNonDefaultCommit: the commit depth is not part of
// the lane-shape key, so streams with a deeper commit must still match
// solo decoding exactly (the horizon filter runs per lane).
func TestLaneEngineIdentityNonDefaultCommit(t *testing.T) {
	const streams, d, w, c, rounds = 33, 4, 6, 3, 150
	want := runSoloDecoders(t, streams, d, w, c, rounds, nil)
	got := runLaneEngine(t, streams, 2, d, w, c, rounds, nil)
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("stream %d: lane corrections diverge under commit=%d", i, c)
		}
	}
}

// TestLaneEngineIdentityUnderChaos: erased windows are ineligible for the
// bit planes and must fall out to the scalar path without disturbing any
// other lane in the group.
func TestLaneEngineIdentityUnderChaos(t *testing.T) {
	chaos := &faults.Config{Seed: 7, DropRate: 0.05, DuplicateRate: 0.02, ReorderRate: 0.02, CorruptRate: 0.03}
	const streams, d, rounds = 70, 3, 200
	want := runSoloDecoders(t, streams, d, d, 0, rounds, chaos)
	for _, workers := range []int{1, 3} {
		got := runLaneEngine(t, streams, workers, d, d, 0, rounds, chaos)
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d stream %d: lane corrections diverge under chaos", workers, i)
			}
		}
	}
}

// laneTwinPair is one lane-batched decoder plus its scalar twin, fed
// identical rounds.
type laneTwinPair struct {
	lane, scalar       *Decoder
	laneOut, scalarOut []Correction
}

func newLaneTwinPair(t *testing.T, d, w, c int) *laneTwinPair {
	t.Helper()
	p := &laneTwinPair{}
	var err error
	if p.lane, err = New(d, w, c); err != nil {
		t.Fatal(err)
	}
	if p.scalar, err = New(d, w, c); err != nil {
		t.Fatal(err)
	}
	if err := p.lane.setDeferDecode(true); err != nil {
		t.Fatal(err)
	}
	p.lane.SetSink(func(c Correction) { p.laneOut = append(p.laneOut, c) })
	p.scalar.SetSink(func(c Correction) { p.scalarOut = append(p.scalarOut, c) })
	return p
}

// push feeds one identical round to both twins (nil events = erased round).
func (p *laneTwinPair) push(t *testing.T, events []int32, erased bool) {
	t.Helper()
	if erased {
		p.lane.PushErased()
		p.scalar.PushErased()
		return
	}
	if err := p.lane.PushLayer(events); err != nil {
		t.Fatal(err)
	}
	if err := p.scalar.PushLayer(events); err != nil {
		t.Fatal(err)
	}
}

// randLayer draws a Bernoulli(p) layer over the per-round ancillas.
func randLayer(rng *rand.Rand, per int, p float64) []int32 {
	var ev []int32
	for x := 0; x < per; x++ {
		if rng.Float64() < p {
			ev = append(ev, int32(x))
		}
	}
	return ev
}

// TestLaneBatcherMatchesScalarTwins is the decoder-level property test: for
// every group size 1..64, a set of lane-batched decoders fed random rounds
// must commit exactly what scalar twins commit on the identical rounds —
// including erased rounds, a W0-skip-disabled lane, and dense rounds past
// the sparse-shortcut defect cap.
func TestLaneBatcherMatchesScalarTwins(t *testing.T) {
	const d, w = 4, 4
	per := d * (d - 1)
	for _, n := range []int{1, 2, 3, 7, 16, 33, 64} {
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		pairs := make([]*laneTwinPair, n)
		decs := make([]*Decoder, n)
		for i := range pairs {
			pairs[i] = newLaneTwinPair(t, d, w, 0)
			if i == 1 {
				// One lane with the weight-0 skip disabled: ineligible for
				// the planes, must route scalar inside the group.
				pairs[i].lane.disableW0Skip = true
				pairs[i].scalar.disableW0Skip = true
			}
			decs[i] = pairs[i].lane
		}
		b := newLaneBatcher()
		const rounds = 160
		for r := 0; r < rounds; r++ {
			for i, p := range pairs {
				// Per-lane noise levels: quiet lanes (w0 and fast-path
				// traffic), busy lanes (gathered), and one dense lane that
				// overflows core.MaxShortcutDefects some windows.
				rate := []float64{0.0, 0.02, 0.08, 0.5}[i%4]
				erased := rng.Float64() < 0.03
				p.push(t, randLayer(rng, per, rate), erased)
			}
			b.Decode(decs)
		}
		for _, p := range pairs {
			p.lane.Flush()
			p.scalar.Flush()
		}
		for i, p := range pairs {
			if !slices.Equal(p.laneOut, p.scalarOut) {
				t.Fatalf("n=%d lane %d: lane-batched corrections diverge from scalar twin (%d vs %d)",
					n, i, len(p.laneOut), len(p.scalarOut))
			}
		}
	}
}

// TestLaneBatcherMixedShapes: decoders of different (distance, window)
// shapes interleaved in one slice must group per shape and still match
// their scalar twins.
func TestLaneBatcherMixedShapes(t *testing.T) {
	shapes := []struct{ d, w int }{{3, 3}, {4, 4}, {3, 5}}
	const perShape = 5
	rng := rand.New(rand.NewSource(77))
	var pairs []*laneTwinPair
	var decs []*Decoder
	for i := 0; i < perShape; i++ {
		for _, sh := range shapes { // interleaved, not contiguous
			p := newLaneTwinPair(t, sh.d, sh.w, 0)
			pairs = append(pairs, p)
			decs = append(decs, p.lane)
		}
	}
	b := newLaneBatcher()
	for r := 0; r < 200; r++ {
		for _, p := range pairs {
			per := p.lane.Distance * (p.lane.Distance - 1)
			p.push(t, randLayer(rng, per, 0.05), false)
		}
		b.Decode(decs)
	}
	for _, p := range pairs {
		p.lane.Flush()
		p.scalar.Flush()
	}
	for i, p := range pairs {
		if !slices.Equal(p.laneOut, p.scalarOut) {
			t.Fatalf("pair %d (d=%d w=%d): mixed-shape group diverges from scalar twin",
				i, p.lane.Distance, p.lane.Window)
		}
	}
}

// TestLaneDeferredResolution covers the pending-window state machine: a
// deferred window is marked pending, resolves scalar on the next ingest if no
// batcher runs, resolves before a snapshot (so Restore's layer invariant
// holds), and resolves on Flush — all bit-identically to a scalar twin.
func TestLaneDeferredResolution(t *testing.T) {
	const d, w = 3, 3
	per := d * (d - 1)
	rng := rand.New(rand.NewSource(5))
	p := newLaneTwinPair(t, d, w, 0)
	b := newLaneBatcher()
	for r := 0; r < 90; r++ {
		p.push(t, randLayer(rng, per, 0.1), false)
		if r >= w-1 && !p.lane.pending {
			t.Fatalf("round %d: full deferred window not pending", r)
		}
		switch r % 3 {
		case 0:
			b.Decode([]*Decoder{p.lane})
			if p.lane.pending {
				t.Fatal("pending after a batched decode")
			}
		case 1:
			// No batcher run: the next ingest must resolve the pending
			// window scalar before accepting the new layer.
		case 2:
			snap := p.lane.Snapshot()
			if len(snap.Layers) >= w {
				t.Fatalf("snapshot holds %d layers with window %d", len(snap.Layers), w)
			}
			if p.lane.pending {
				t.Fatal("pending survived a snapshot")
			}
		}
	}
	p.lane.Flush()
	p.scalar.Flush()
	if p.lane.pending {
		t.Fatal("pending after Flush")
	}
	if !slices.Equal(p.laneOut, p.scalarOut) {
		t.Fatalf("deferred-resolution stream diverges from scalar twin (%d vs %d corrections)",
			len(p.laneOut), len(p.scalarOut))
	}
}

// TestDeferDecodeRobustMutualExclusion: robust decoders must never defer
// (degraded/deadline windows cannot enter a lane group), in both orders.
func TestDeferDecodeRobustMutualExclusion(t *testing.T) {
	dec, err := New(4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetRobust(Robust{DeadlineNS: 350, QueueCap: 8}); err != nil {
		t.Fatal(err)
	}
	if err := dec.setDeferDecode(true); err == nil {
		t.Fatal("setDeferDecode accepted on a robust decoder")
	}
	dec2, err := New(4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec2.setDeferDecode(true); err != nil {
		t.Fatal(err)
	}
	if err := dec2.SetRobust(Robust{DeadlineNS: 350, QueueCap: 8}); err == nil {
		t.Fatal("SetRobust accepted on a deferred decoder")
	}
	// Robust on a decoder that turned deferral back off is fine.
	if err := dec2.setDeferDecode(false); err != nil {
		t.Fatal(err)
	}
	if err := dec2.SetRobust(Robust{DeadlineNS: 350, QueueCap: 8}); err != nil {
		t.Fatal(err)
	}
	// A robust engine decodes each window at fill: it never lane-batches.
	eng, err := NewEngine(EngineConfig{
		Streams: 2, Distance: 4,
		Robust: Robust{DeadlineNS: 350, QueueCap: 8},
		Sink:   func(int, Correction) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.lane {
		t.Fatal("robust engine enabled lane batching")
	}
}

// FuzzLaneIdentity feeds fuzzer-shaped rounds to a small lane group and its
// scalar twins; any divergence in committed corrections is a bug in the
// word-parallel classification or the fast-path emission order.
func FuzzLaneIdentity(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xff, 0x03}, uint8(2))
	f.Add([]byte{0xaa, 0x55, 0x12, 0x34, 0x56, 0x78}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, nLanes uint8) {
		const d, w = 3, 3
		per := d * (d - 1)
		n := 1 + int(nLanes)%5
		pairs := make([]*laneTwinPair, n)
		decs := make([]*Decoder, n)
		for i := range pairs {
			pairs[i] = newLaneTwinPair(t, d, w, 0)
			decs[i] = pairs[i].lane
		}
		b := newLaneBatcher()
		// Each byte drives one lane-round: bit per ancilla (per=6 fits), with
		// 0xff meaning an erased round.
		for off := 0; off+n <= len(data); off += n {
			for i := 0; i < n; i++ {
				bits := data[off+i]
				if bits == 0xff {
					pairs[i].push(t, nil, true)
					continue
				}
				var ev []int32
				for x := 0; x < per; x++ {
					if bits>>uint(x)&1 != 0 {
						ev = append(ev, int32(x))
					}
				}
				pairs[i].push(t, ev, false)
			}
			b.Decode(decs)
		}
		for _, p := range pairs {
			p.lane.Flush()
			p.scalar.Flush()
		}
		for i, p := range pairs {
			if !slices.Equal(p.laneOut, p.scalarOut) {
				t.Fatalf("lane %d diverges from scalar twin (%d vs %d corrections)",
					i, len(p.laneOut), len(p.scalarOut))
			}
		}
	})
}
