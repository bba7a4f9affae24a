package stream

import (
	"bytes"
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"afs/internal/faults"
	"afs/internal/lattice"
	"afs/internal/noise"
	"afs/internal/obs"
)

// runLaneEngine drives a lane-batched engine over seeded per-stream
// samplers, with an optional chaos config, and returns each stream's
// flushed corrections.
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

// TestLaneEngineSharesDecoders pins where an engine's Union-Find working
// sets live: on the workers' Lanes, one core decoder per graph, lent to
// every stream a worker resolves and flushes. At the paper's design point
// (d = W = 11, C = 5, p = 1e-3; 256 streams on 2 workers), across
// construction, 600 rounds and Flush, no stream decoder builds a working
// set of its own, and the live heap grows by less than 16 KB per
// stream — a window decoder alone is ~200 KB at d = 11.
func TestLaneEngineSharesDecoders(t *testing.T) {
	const streams, d, w, c, workers, rounds = 256, 11, 11, 5, 2, 600
	cfg := EngineConfig{Distance: d, Window: w, Commit: c, Workers: workers}
	run := func(eng *Engine, samplers []*noise.RoundSampler) {
		if err := eng.RunRounds(rounds, func(stream, _ int) []int32 {
			return samplers[stream].SampleRound()
		}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	newSamplers := func(n int) []*noise.RoundSampler {
		samplers := make([]*noise.RoundSampler, n)
		for i := range samplers {
			samplers[i] = noise.NewRoundSampler(d, 1e-3, 77, uint64(i)+1)
		}
		return samplers
	}

	// A two-stream engine of the same shape first fills the process-wide
	// graph and classifier caches, which every engine shares and none frees.
	cfg.Streams, cfg.Sink = 2, func(int, Correction) {}
	warm, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(warm, newSamplers(2))
	warm.Close()

	samplers := newSamplers(streams)
	counts := make([]int, streams)
	cfg.Streams, cfg.Sink = streams, func(stream int, _ Correction) { counts[stream]++ }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	run(eng, samplers)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(samplers)

	for i, dec := range eng.decs {
		if dec.own != nil {
			t.Fatalf("stream %d built a working set of its own", i)
		}
	}
	held := map[*lattice.Graph]bool{}
	for wi, l := range eng.lanes {
		seen := map[*lattice.Graph]bool{}
		for _, dec := range l.units {
			if seen[dec.G] {
				t.Fatalf("worker %d holds two core decoders for one graph", wi)
			}
			seen[dec.G] = true
			held[dec.G] = true
		}
	}
	// 600 rounds leave 10 layers buffered, so Flush decodes on the closed
	// 10-layer graph; at p = 1e-3 some windows reach the window decoder.
	if !held[lattice.Cached3DWindow(d, w)] || !held[lattice.Cached3D(d, 10)] {
		t.Fatalf("workers hold %d graphs, missing the window or the 10-layer flush graph", len(held))
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		t.Fatal("vacuous run: no corrections committed")
	}
	growth := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / streams
	t.Logf("live heap growth %.1f KB per stream, %d corrections", float64(growth)/1024, total)
	if growth >= 16<<10 {
		t.Fatalf("live heap grew %.1f KB per stream across construction, run and Flush, want < 16 KB", float64(growth)/1024)
	}
}

// TestLaneEngineIdentityNonDefaultCommit: the commit depth is not part of
// the lane-shape key, so streams with a deeper commit must still match
// solo decoding exactly (the commit filter runs per lane).
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

// robustRun is what a robust identity check compares: per-stream
// corrections and merged ledgers, and the exported Chrome trace.
type robustRun struct {
	corrs [][]Correction
	reps  []faults.Report
	trace []byte
}

// chromeTrace exports tr, failing if it dropped events.
func chromeTrace(t *testing.T, tr *obs.Trace) []byte {
	t.Helper()
	if tr.Dropped() != 0 {
		t.Fatalf("trace dropped %d events; grow the buffer", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runRobustLaneEngine drives a robust engine, traced, over the seeded
// per-stream samplers with an optional chaos config.
func runRobustLaneEngine(t *testing.T, streams, workers, d, w, c, rounds int, robust Robust, chaos *faults.Config) robustRun {
	t.Helper()
	run := robustRun{corrs: make([][]Correction, streams), reps: make([]faults.Report, streams)}
	tr := obs.NewTrace(1 << 17)
	eng, err := NewEngine(EngineConfig{
		Streams: streams, Distance: d, Window: w, Commit: c, Workers: workers,
		Robust: robust, Chaos: chaos, Trace: tr,
		Sink: func(stream int, corr Correction) {
			run.corrs[stream] = append(run.corrs[stream], corr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	samplers := seededSamplers(streams, d)
	if err := eng.RunRounds(rounds, func(stream, _ int) []int32 {
		return samplers[stream].SampleRound()
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range run.reps {
		run.reps[i] = eng.StreamReport(i)
	}
	run.trace = chromeTrace(t, tr)
	return run
}

// runRobustSoloDecoders is runRobustLaneEngine's oracle: each stream
// decoded at fill by its own NewRobust decoder, fed by feedRounds through
// its own faults.StreamSeed channel, tracing into one shared trace under
// its stream index. With fullRoute every decoder is held to the full
// route, so no window reaches the lane certificate.
func runRobustSoloDecoders(t *testing.T, streams, d, w, c, rounds int, robust Robust, chaos *faults.Config, fullRoute bool) robustRun {
	t.Helper()
	run := robustRun{corrs: make([][]Correction, streams), reps: make([]faults.Report, streams)}
	tr := obs.NewTrace(1 << 17)
	samplers := seededSamplers(streams, d)
	for i := 0; i < streams; i++ {
		dec, err := NewRobust(d, w, c, robust)
		if err != nil {
			t.Fatal(err)
		}
		dec.fullRoute = fullRoute
		dec.SetTrace(tr, int32(i))
		var ch *faults.Channel
		if chaos != nil {
			cc := *chaos
			cc.Seed = faults.StreamSeed(chaos.Seed, i)
			ch = faults.NewChannel(d*(d-1), cc)
		}
		feedRounds(t, dec, samplers[i], ch, rounds)
		run.corrs[i] = dec.Flush()
		run.reps[i] = dec.Report()
		if ch != nil {
			run.reps[i].Merge(ch.Report())
		}
	}
	run.trace = chromeTrace(t, tr)
	return run
}

// TestLaneEngineIdentityRobust: robust streams join lane groups like any
// other, and a robust engine must commit the same corrections, report the
// same per-stream ledgers and export the same trace as solo robust
// decoders that decode each window at fill — under deadlines tight enough
// to time out and degrade, queue caps small enough to shed, and link chaos
// with stalls and service-time inflation, for every fleet size and worker
// count. The solo decoders must in turn match the same decoders held to
// the full route: a window's deadline charge depends on its syndrome, not
// on whether the lane certificate resolved it, so ledgers and traces are
// equal and corrections equal as sorted multisets (the certificate emits a
// window's edges in vertex order, a full decode in peel order). The run
// must exercise the lane fast path and every robust event, or the identity
// would hold vacuously.
func TestLaneEngineIdentityRobust(t *testing.T) {
	const rounds = 200
	configs := []struct {
		d, w, c int
		robust  Robust
		chaos   *faults.Config
	}{
		{d: 3, robust: Robust{DeadlineNS: 15, QueueCap: 2},
			chaos: &faults.Config{Seed: 3, DropRate: 0.03, DuplicateRate: 0.02, ReorderRate: 0.02,
				CorruptRate: 0.03, StallRate: 0.05, StallNS: 600}},
		{d: 5, robust: Robust{DeadlineNS: 40, QueueCap: 4}},
		{d: 4, w: 6, c: 3, robust: Robust{DeadlineNS: 60, QueueCap: 3},
			chaos: &faults.Config{Seed: 5, DropRate: 0.02, CorruptRate: 0.02, InflateNS: 380}},
		{d: 7, robust: Robust{DeadlineNS: 350, QueueCap: 16},
			chaos: &faults.Config{Seed: 9, StallRate: 0.02, StallNS: 2000, InflateNS: 50}},
		{d: 5, robust: Robust{DeadlineNS: 600}},
	}
	var timeouts, degraded, shed uint64
	fastBefore := registeredObs.laneFast.Value()
	for _, cfg := range configs {
		for _, streams := range []int{1, 5, 64, 70} {
			want := runRobustSoloDecoders(t, streams, cfg.d, cfg.w, cfg.c, rounds, cfg.robust, cfg.chaos, false)
			for _, rep := range want.reps {
				timeouts += rep.Timeouts
				degraded += rep.DegradedCommits
				shed += rep.ShedRounds
			}
			full := runRobustSoloDecoders(t, streams, cfg.d, cfg.w, cfg.c, rounds, cfg.robust, cfg.chaos, true)
			for i := range want.corrs {
				if !slices.Equal(sortedCorrections(full.corrs[i]), sortedCorrections(want.corrs[i])) {
					t.Fatalf("d=%d %+v L=%d stream %d: lane-route corrections diverge from the full route (%d vs %d)",
						cfg.d, cfg.robust, streams, i, len(want.corrs[i]), len(full.corrs[i]))
				}
				if full.reps[i] != want.reps[i] {
					t.Fatalf("d=%d %+v L=%d stream %d: lane-route ledger diverges from the full route:\n lane %+v\n full %+v",
						cfg.d, cfg.robust, streams, i, want.reps[i], full.reps[i])
				}
			}
			if !bytes.Equal(full.trace, want.trace) {
				t.Fatalf("d=%d %+v L=%d: lane-route trace differs from the full route's (%d vs %d bytes)",
					cfg.d, cfg.robust, streams, len(want.trace), len(full.trace))
			}
			for _, workers := range []int{1, 2, 3} {
				got := runRobustLaneEngine(t, streams, workers, cfg.d, cfg.w, cfg.c, rounds, cfg.robust, cfg.chaos)
				for i := range want.corrs {
					if !slices.Equal(got.corrs[i], want.corrs[i]) {
						t.Fatalf("d=%d %+v L=%d workers=%d stream %d: corrections diverge from a solo robust decoder (%d vs %d)",
							cfg.d, cfg.robust, streams, workers, i, len(got.corrs[i]), len(want.corrs[i]))
					}
					if got.reps[i] != want.reps[i] {
						t.Fatalf("d=%d %+v L=%d workers=%d stream %d: ledger diverges:\n got  %+v\n want %+v",
							cfg.d, cfg.robust, streams, workers, i, got.reps[i], want.reps[i])
					}
				}
				if !bytes.Equal(got.trace, want.trace) {
					t.Fatalf("d=%d %+v L=%d workers=%d: trace differs from the solo decoders' (%d vs %d bytes)",
						cfg.d, cfg.robust, streams, workers, len(got.trace), len(want.trace))
				}
			}
		}
	}
	fast := registeredObs.laneFast.Value() - fastBefore
	t.Logf("lane-fast windows %d, timeouts %d, degraded commits %d, shed rounds %d", fast, timeouts, degraded, shed)
	if fast == 0 || timeouts == 0 || degraded == 0 || shed == 0 {
		t.Fatalf("vacuous run: lane-fast windows %d, timeouts %d, degraded commits %d, shed rounds %d",
			fast, timeouts, degraded, shed)
	}
}

// TestLaneDeferredRobustLedger: AddPenaltyNS and Report resolve a deferred
// robust decoder's pending window before they charge or read the ledger,
// so a stream fed several rounds between Resolve calls (a fleet replay
// envelope) matches a twin that decodes at fill — penalty for penalty,
// ledger for ledger.
func TestLaneDeferredRobustLedger(t *testing.T) {
	const d, w = 3, 3
	per := d * (d - 1)
	rng := rand.New(rand.NewSource(13))
	robust := Robust{DeadlineNS: 40, QueueCap: 2}
	var lane, scalar *Decoder
	var err error
	l := NewLanes()
	if lane, err = l.NewRobust(d, w, 0, robust); err != nil {
		t.Fatal(err)
	}
	if scalar, err = NewRobust(d, w, 0, robust); err != nil {
		t.Fatal(err)
	}
	var laneOut, scalarOut []Correction
	lane.SetSink(func(c Correction) { laneOut = append(laneOut, c) })
	scalar.SetSink(func(c Correction) { scalarOut = append(scalarOut, c) })
	for r := 0; r < 400; r++ {
		// Three rounds in four charge a penalty past the deadline, enough
		// on average to outrun the round period and shed.
		pen := float64(rng.Intn(4)) * 300
		lane.AddPenaltyNS(pen)
		scalar.AddPenaltyNS(pen)
		if lane.pending {
			t.Fatalf("round %d: AddPenaltyNS left the window pending", r)
		}
		events := randLayer(rng, per, 0.1)
		if err := lane.PushLayer(events); err != nil {
			t.Fatal(err)
		}
		if err := scalar.PushLayer(events); err != nil {
			t.Fatal(err)
		}
		switch r % 3 {
		case 0:
			l.Resolve([]*Decoder{lane})
		case 1:
			// The next round's AddPenaltyNS resolves the pending window.
		case 2:
			if got, want := lane.Report(), scalar.Report(); got != want {
				t.Fatalf("round %d: ledger of a pending window diverges:\n got  %+v\n want %+v", r, got, want)
			}
			if lane.pending {
				t.Fatalf("round %d: Report left the window pending", r)
			}
		}
	}
	lane.Flush()
	scalar.Flush()
	if !slices.Equal(laneOut, scalarOut) {
		t.Fatalf("deferred robust stream diverges from its twin (%d vs %d corrections)", len(laneOut), len(scalarOut))
	}
	got, want := lane.Report(), scalar.Report()
	if got != want {
		t.Fatalf("deferred robust ledger diverges:\n got  %+v\n want %+v", got, want)
	}
	if want.Timeouts == 0 || want.DegradedCommits == 0 || want.ShedRounds == 0 {
		t.Fatalf("vacuous run: %+v", want)
	}
}

// sortedCorrections returns a sorted copy of cs, for comparisons that hold
// only as multisets.
func sortedCorrections(cs []Correction) []Correction {
	out := slices.Clone(cs)
	slices.SortFunc(out, func(a, b Correction) int {
		return cmp.Or(cmp.Compare(a.Round, b.Round), cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.Qubit, b.Qubit), cmp.Compare(a.Ancilla, b.Ancilla))
	})
	return out
}

// laneTwinPair is one lane-batched decoder plus its scalar twin, fed
// identical rounds.
type laneTwinPair struct {
	lane, scalar       *Decoder
	laneOut, scalarOut []Correction
}

func newLaneTwinPair(t *testing.T, d, w, c int, r Robust) *laneTwinPair {
	t.Helper()
	p := &laneTwinPair{}
	var err error
	if p.lane, err = NewLanes().NewRobust(d, w, c, r); err != nil {
		t.Fatal(err)
	}
	if p.scalar, err = NewRobust(d, w, c, r); err != nil {
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
// must commit exactly what solo twins (each window a one-lane group)
// commit on the identical rounds — including erased rounds, a lane held
// to the full route, and dense rounds with dozens of defects a window.
func TestLaneBatcherMatchesScalarTwins(t *testing.T) {
	const d, w = 4, 4
	per := d * (d - 1)
	for _, n := range []int{1, 2, 3, 7, 16, 33, 64} {
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		pairs := make([]*laneTwinPair, n)
		decs := make([]*Decoder, n)
		for i := range pairs {
			pairs[i] = newLaneTwinPair(t, d, w, 0, Robust{})
			if i == 1 {
				// One lane held to the full route: ineligible for the
				// planes, must route scalar inside the group.
				pairs[i].lane.fullRoute = true
				pairs[i].scalar.fullRoute = true
			}
			decs[i] = pairs[i].lane
		}
		b := NewLanes()
		const rounds = 160
		for r := 0; r < rounds; r++ {
			for i, p := range pairs {
				// Per-lane noise levels: quiet lanes (w0 and fast-path
				// traffic), busy lanes (gathered), and one dense lane with
				// dozens of defects a window.
				rate := []float64{0.0, 0.02, 0.08, 0.5}[i%4]
				erased := rng.Float64() < 0.03
				p.push(t, randLayer(rng, per, rate), erased)
			}
			b.Resolve(decs)
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
			p := newLaneTwinPair(t, sh.d, sh.w, 0, Robust{})
			pairs = append(pairs, p)
			decs = append(decs, p.lane)
		}
	}
	b := NewLanes()
	for r := 0; r < 200; r++ {
		for _, p := range pairs {
			per := p.lane.Distance * (p.lane.Distance - 1)
			p.push(t, randLayer(rng, per, 0.05), false)
		}
		b.Resolve(decs)
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
	p := newLaneTwinPair(t, d, w, 0, Robust{})
	b := NewLanes()
	for r := 0; r < 90; r++ {
		p.push(t, randLayer(rng, per, 0.1), false)
		if r >= w-1 && !p.lane.pending {
			t.Fatalf("round %d: full deferred window not pending", r)
		}
		switch r % 3 {
		case 0:
			b.Resolve([]*Decoder{p.lane})
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

// FuzzLaneIdentity feeds fuzzer-shaped rounds to a small lane group and its
// scalar twins; any divergence in committed corrections is a bug in the
// word-parallel classification or the fast-path emission order. A second,
// robust leg (a deadline two pairs overrun, a queue cap of 2, and a 1000 ns
// stall on every 0xfe byte, enough to shed) holds the twins to the full
// route: corrections must match as sorted multisets and ledgers exactly,
// so a fast lane must be charged what its full decode is.
func FuzzLaneIdentity(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xff, 0x03}, uint8(2))
	f.Add([]byte{0xaa, 0x55, 0x12, 0x34, 0x56, 0x78}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, nLanes uint8) {
		const d, w = 3, 3
		per := d * (d - 1)
		n := 1 + int(nLanes)%5
		for _, robust := range []Robust{{}, {DeadlineNS: 15, QueueCap: 2}} {
			pairs := make([]*laneTwinPair, n)
			decs := make([]*Decoder, n)
			for i := range pairs {
				pairs[i] = newLaneTwinPair(t, d, w, 0, robust)
				pairs[i].scalar.fullRoute = robust.enabled()
				decs[i] = pairs[i].lane
			}
			b := NewLanes()
			// Each byte drives one lane-round: bit per ancilla (per=6 fits), with
			// 0xff meaning an erased round and, in the robust leg, 0xfe a stall
			// before its round.
			for off := 0; off+n <= len(data); off += n {
				for i := 0; i < n; i++ {
					bits := data[off+i]
					if bits == 0xff {
						pairs[i].push(t, nil, true)
						continue
					}
					if bits == 0xfe && robust.enabled() {
						pairs[i].lane.AddPenaltyNS(1000)
						pairs[i].scalar.AddPenaltyNS(1000)
					}
					var ev []int32
					for x := 0; x < per; x++ {
						if bits>>uint(x)&1 != 0 {
							ev = append(ev, int32(x))
						}
					}
					pairs[i].push(t, ev, false)
				}
				b.Resolve(decs)
			}
			for _, p := range pairs {
				p.lane.Flush()
				p.scalar.Flush()
			}
			for i, p := range pairs {
				got, want := p.laneOut, p.scalarOut
				if robust.enabled() {
					got, want = sortedCorrections(got), sortedCorrections(want)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%+v lane %d diverges from scalar twin (%d vs %d corrections)",
						robust, i, len(p.laneOut), len(p.scalarOut))
				}
				if got, want := p.lane.Report(), p.scalar.Report(); got != want {
					t.Fatalf("%+v lane %d: ledger diverges from scalar twin:\n lane   %+v\n scalar %+v", robust, i, got, want)
				}
			}
		}
	})
}
