package stream

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"afs/internal/faults"
	"afs/internal/lattice"
	"afs/internal/noise"
	"afs/internal/obs"
)

// SetObsEnabled installs (true, the default) or removes (false) the metrics
// sink captured by decoders created afterwards, so a test can build
// otherwise identical decoders with and without instrumentation. It is
// process-wide: a caller restores it to true before returning.
func SetObsEnabled(on bool) {
	if on {
		obsSink.Store(registeredObs)
	} else {
		obsSink.Store(nil)
	}
}

// TestDeferredWindowCounterName checks that a scrape of the default
// registry exports the deferred-window counter under its current name and
// not under the name of the deleted horizon shortcut.
func TestDeferredWindowCounterName(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	if !strings.Contains(scrape, "afs_stream_window_deferred_total") {
		t.Fatal("scrape lacks afs_stream_window_deferred_total")
	}
	if strings.Contains(scrape, "horizon_skips") {
		t.Fatal("scrape still exports the horizon-skip counter name")
	}
}

// runObsEngine drives the same fixed-seed chaos fleet as the determinism
// tests, optionally with a trace installed, and returns the committed
// corrections and merged ledger.
func runObsEngine(t *testing.T, workers int, tr *obs.Trace) ([][]Correction, faults.Report) {
	t.Helper()
	const streams, d, rounds = 5, 5, 300
	out := make([][]Correction, streams)
	eng, err := NewEngine(EngineConfig{
		Streams: streams, Distance: d, Workers: workers,
		Sink:   func(i int, c Correction) { out[i] = append(out[i], c) },
		Robust: Robust{DeadlineNS: 350, QueueCap: 8},
		Chaos: &faults.Config{
			Seed:     99,
			DropRate: 0.02, DuplicateRate: 0.01, CorruptRate: 0.02, StallRate: 0.01,
		},
		Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	samplers := make([]*noise.RoundSampler, streams)
	for i := range samplers {
		samplers[i] = noise.NewRoundSampler(d, 0.01, 71, uint64(i)*0x9e37+1)
	}
	if err := eng.RunRounds(rounds, func(stream, _ int) []int32 {
		return samplers[stream].SampleRound()
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	return out, eng.FaultReport()
}

// TestObsDoesNotPerturbDecoding is the no-perturbation acceptance
// criterion: a fixed-seed run commits bit-identical corrections whether
// metrics are enabled (the default), disabled, or a trace is recording.
func TestObsDoesNotPerturbDecoding(t *testing.T) {
	want, wantRep := runObsEngine(t, 3, nil)

	SetObsEnabled(false)
	gotOff, repOff := runObsEngine(t, 3, nil)
	SetObsEnabled(true)
	gotTraced, repTraced := runObsEngine(t, 3, obs.NewTrace(1<<18))

	for i := range want {
		if !slices.Equal(gotOff[i], want[i]) {
			t.Fatalf("stream %d: corrections changed with metrics disabled", i)
		}
		if !slices.Equal(gotTraced[i], want[i]) {
			t.Fatalf("stream %d: corrections changed with a trace installed", i)
		}
	}
	if repOff != wantRep || repTraced != wantRep {
		t.Fatalf("fault ledger perturbed by observability:\n base   %v\n off    %v\n traced %v",
			wantRep, repOff, repTraced)
	}
}

// TestTraceByteIdenticalAcrossWorkerCounts pins the trace determinism
// contract: the exported Chrome trace of a fixed-seed fleet is the same
// byte stream for any worker count.
func TestTraceByteIdenticalAcrossWorkerCounts(t *testing.T) {
	export := func(workers int) []byte {
		tr := obs.NewTrace(1 << 18)
		runObsEngine(t, workers, tr)
		if tr.Dropped() != 0 {
			t.Fatalf("workers=%d: trace dropped %d events; grow the buffer", workers, tr.Dropped())
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := export(1)
	if len(want) == 0 {
		t.Fatal("empty trace export")
	}
	for _, workers := range []int{2, 5} {
		if got := export(workers); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: exported trace differs from workers=1 (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestObsCountersMatchLedger cross-checks the live counters against the
// decoder's own ledger: the deltas a run adds to the fleet-wide metrics
// must equal the Report the run returns — same events, two accountings.
func TestObsCountersMatchLedger(t *testing.T) {
	type snap struct {
		windows, timeouts, degraded, shed, sheds, recovers, erased uint64
	}
	take := func() snap {
		o := registeredObs
		return snap{
			windows:  o.windows.Value(),
			timeouts: o.timeouts.Value(),
			degraded: o.degraded.Value(),
			shed:     o.shedRounds.Value(),
			sheds:    o.backlogSheds.Value(),
			recovers: o.backlogRecovers.Value(),
			erased:   o.erasedRounds.Value(),
		}
	}

	const d, T = 4, 40
	g := lattice.New3D(d, T)
	s := noise.NewSampler(g, 0.02, 83, 17)
	dec, err := NewRobust(d, d, 0, Robust{DeadlineNS: 350, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := take()
	var trial noise.Trial
	s.Sample(&trial)
	per := g.LayerVertices()
	layers := make([][]int32, T)
	for _, v := range trial.Defects {
		layers[int(v)/per] = append(layers[int(v)/per], int32(int(v)%per))
	}
	for i, l := range layers {
		dec.AddPenaltyNS(1e5) // overload: force timeouts and shedding
		if i%7 == 3 {
			dec.PushErased()
			continue
		}
		if err := dec.PushLayer(l); err != nil {
			t.Fatal(err)
		}
	}
	// The windows counter is a throughput metric and also counts Flush's
	// final closing window; the ledger's Windows is the p_tof denominator
	// and only counts deadline-charged sliding windows — snapshot before
	// Flush so the two accountings cover the same set. Steady-state tallies
	// batch locally (obsFlushWindows), so publish them first.
	dec.flushObs()
	mid := take()
	dec.Flush()
	rep := dec.Report()
	after := take()

	if got := mid.windows - before.windows; got != rep.Windows {
		t.Errorf("windows counter delta %d != ledger %d", got, rep.Windows)
	}
	if got := after.windows - mid.windows; got > 1 {
		t.Errorf("flush decoded %d final windows, want at most 1", got)
	}
	if got := after.timeouts - before.timeouts; got != rep.Timeouts {
		t.Errorf("timeouts counter delta %d != ledger %d", got, rep.Timeouts)
	}
	if got := after.degraded - before.degraded; got != rep.DegradedCommits {
		t.Errorf("degraded counter delta %d != ledger %d", got, rep.DegradedCommits)
	}
	if got := after.shed - before.shed; got != rep.ShedRounds {
		t.Errorf("shed-rounds counter delta %d != ledger %d", got, rep.ShedRounds)
	}
	if got := after.sheds - before.sheds; got != rep.BacklogSheds {
		t.Errorf("backlog-sheds counter delta %d != ledger %d", got, rep.BacklogSheds)
	}
	if got := after.recovers - before.recovers; got != rep.BacklogRecovers {
		t.Errorf("backlog-recovers counter delta %d != ledger %d", got, rep.BacklogRecovers)
	}
	if rep.BacklogSheds == 0 || rep.Timeouts == 0 {
		t.Fatalf("overload produced no degradation to count (sheds %d, timeouts %d)",
			rep.BacklogSheds, rep.Timeouts)
	}
	if got := after.erased - before.erased; got == 0 {
		t.Error("erased-rounds counter did not move despite PushErased calls")
	}
	// A flushed single-stream ledger must balance exactly.
	if err := rep.CheckFinal(); err != nil {
		t.Errorf("flushed ledger fails CheckFinal: %v", err)
	}
}
