package afs

import (
	"bytes"
	"reflect"
	"testing"

	"afs/internal/stats"
)

// TestStreamRateMatchesReference pins the streaming decoder's logical
// error rate — sliding windows resolved through the lane route, committed
// and scored over whole streams — to stored reference intervals, plain and
// under a deadline tight enough to time out and degrade ~3% of windows.
// Each reference is one MeasureStreamRobustness run of 2^21 trials
// (provenance in EXPERIMENTS.md, "Streaming rate references"); a
// certificate, commit or deadline-rule change that shifts the rate by
// more than sampling noise fails here whatever seed it draws. Intervals
// are compared at z = 3.89, as in montecarlo's TestLogicalRateMatchesReference.
func TestStreamRateMatchesReference(t *testing.T) {
	const trials, level = 25_000, 0.9999
	for _, ref := range []struct {
		name                   string
		deadlineNS             float64
		queueCap               int
		refTrials, refFailures uint64
	}{
		{"plain", 0, 0, 1 << 21, 91332},
		{"deadline 150 ns, queue cap 8", 150, 8, 1 << 21, 89033},
	} {
		r, err := MeasureStreamRobustness(StreamRobustnessConfig{
			Distance: 5, Rounds: 15, P: 0.015, Trials: trials, Seed: 29, Workers: 2,
			DeadlineNS: ref.deadlineNS, QueueCap: ref.queueCap,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := stats.WilsonInterval(ref.refFailures, ref.refTrials, level)
		got := stats.WilsonInterval(uint64(r.Failures), uint64(r.Trials), level)
		t.Logf("%s: %d/%d failures, %d timeouts in %d windows", ref.name, r.Failures, r.Trials, r.Report.Timeouts, r.Report.Windows)
		if ref.deadlineNS > 0 && r.Report.Timeouts == 0 {
			t.Errorf("%s: no window timed out, so the deadline rule went unexercised", ref.name)
		}
		if got.Hi < want.Lo || got.Lo > want.Hi {
			t.Errorf("%s: %d/%d failures, interval [%.5g, %.5g], misses reference [%.5g, %.5g]",
				ref.name, r.Failures, r.Trials, got.Lo, got.Hi, want.Lo, want.Hi)
		}
	}
}

// TestStreamRobustnessIndependentOfWorkerCount checks the promise in
// MeasureStreamRobustness's doc: with chaos, a deadline tight enough to
// time out most windows and stalls long enough to overflow the queue cap,
// the result, the merged fault ledger and the exported Chrome trace are
// identical at 1 and 3 workers.
func TestStreamRobustnessIndependentOfWorkerCount(t *testing.T) {
	run := func(workers int) (StreamRobustnessResult, []byte) {
		tr := NewTrace(1 << 16)
		r, err := MeasureStreamRobustness(StreamRobustnessConfig{
			Distance: 5, P: 0.02, Trials: 300, Seed: 41, Workers: workers,
			Chaos: &FaultConfig{
				Seed: 7, DropRate: 0.02, DuplicateRate: 0.01, ReorderRate: 0.01,
				CorruptRate: 0.02, StallRate: 0.05, StallNS: 1000,
			},
			DeadlineNS: 40, QueueCap: 2, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	r1, tr1 := run(1)
	r3, tr3 := run(3)
	t.Logf("%d failures, %d timeouts in %d windows, %d shed rounds",
		r1.Failures, r1.Report.Timeouts, r1.Report.Windows, r1.Report.ShedRounds)
	if r1.Report.Timeouts == 0 || r1.Report.ShedRounds == 0 {
		t.Fatal("no timeout or no shed round, so the deadline or queue cap went unexercised")
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Errorf("worker count changed the result:\n1: %+v\n3: %+v", r1, r3)
	}
	if !bytes.Equal(tr1, tr3) {
		t.Errorf("worker count changed the trace: %d vs %d bytes", len(tr1), len(tr3))
	}
}
