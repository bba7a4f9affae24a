package stream

import (
	"bytes"
	"slices"
	"testing"

	"afs/internal/noise"
	"afs/internal/obs"
)

// checkList asserts the buffer invariant: the defect list is strictly
// ascending with every id below Buffered()*per, no erasure flag is set past
// the buffered layers, and nErased counts the flags that are.
func checkList(t *testing.T, d *Decoder, when string) {
	t.Helper()
	for i, v := range d.win {
		if v < 0 || v >= int32(d.Buffered()*d.per) {
			t.Fatalf("%s: id %d outside [0,%d) for %d buffered layers", when, v, d.Buffered()*d.per, d.Buffered())
		}
		if i > 0 && v <= d.win[i-1] {
			t.Fatalf("%s: defect list not strictly ascending at %d: %v", when, i, d.win)
		}
	}
	n := 0
	for l, e := range d.erased {
		if !e {
			continue
		}
		if l >= d.Buffered() {
			t.Fatalf("%s: layer %d flagged erased past %d buffered layers", when, l, d.Buffered())
		}
		n++
	}
	if n != d.nErased {
		t.Fatalf("%s: %d erasure flags set, nErased %d", when, n, d.nErased)
	}
}

// TestStreamPushLayersMatchesSequential: the batch ingestion entry must be
// bit-identical to round-by-round PushLayer for any batch partition of the
// same round sequence, and a malformed batch must be rejected atomically —
// no layers ingested, the decoder still in lockstep with the reference.
func TestStreamPushLayersMatchesSequential(t *testing.T) {
	const d, rounds = 5, 400
	a, err := New(d, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	sa := noise.NewRoundSampler(d, 0.01, 77, 1)
	sb := noise.NewRoundSampler(d, 0.01, 77, 1)

	// Varying batch sizes, including batches spanning several window
	// decodes and empty batches.
	sizes := []int{1, 3, 0, 7, 2, 13, 1, 29, 5}
	fed := 0
	si := 0
	for fed < rounds {
		k := sizes[si%len(sizes)]
		si++
		if fed+k > rounds {
			k = rounds - fed
		}
		batch := make([][]int32, k)
		for r := 0; r < k; r++ {
			ev := slices.Clone(sa.SampleRound())
			batch[r] = ev
			if err := b.PushLayer(sb.SampleRound()); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.PushLayers(batch); err != nil {
			t.Fatal(err)
		}
		fed += k

		// Every few batches, offer a malformed one: valid rounds followed
		// by an out-of-range index. It must change nothing.
		if si%3 == 0 {
			buffered := a.Buffered()
			bad := [][]int32{{0}, {1}, {int32(d * (d - 1))}}
			if err := a.PushLayers(bad); err == nil {
				t.Fatal("malformed batch accepted")
			}
			if a.Buffered() != buffered {
				t.Fatalf("rejected batch still ingested layers: %d -> %d", buffered, a.Buffered())
			}
		}
	}
	got, want := a.Flush(), b.Flush()
	if !slices.Equal(got, want) {
		t.Fatalf("PushLayers diverged from sequential PushLayer: %d vs %d corrections", len(got), len(want))
	}
}

// TestStreamW0SkipBitIdentical proves the weight-0 window skip and the
// lane route are optimizations, not behavior changes: a decoder held to
// the full route (every window a full decode, empty ones included) commits
// identical corrections and reports an identical fault ledger, in plain
// mode and in robust (deadline + backpressure) mode, and exports a
// byte-identical Chrome trace. In robust mode that pins every window's
// model cost (a trace window's duration) to be the same on either route:
// the empty decode's, including injected penalties pushing an empty window
// over its deadline, and a fast lane's clusters.
func TestStreamW0SkipBitIdentical(t *testing.T) {
	const d, rounds = 4, 600
	for _, robust := range []bool{false, true} {
		var cfg Robust
		if robust {
			cfg = Robust{DeadlineNS: 300, QueueCap: 3 * d}
		}
		a, err := NewRobust(d, d, 0, cfg) // skip enabled (default)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewRobust(d, d, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.fullRoute = true
		ta, tb := obs.NewTrace(1<<12), obs.NewTrace(1<<12)
		a.SetTrace(ta, 0)
		b.SetTrace(tb, 0)
		// p low enough that most windows are empty, high enough that some
		// are not — both sides of the branch run in one stream.
		sa := noise.NewRoundSampler(d, 0.002, 11, 2)
		sb := noise.NewRoundSampler(d, 0.002, 11, 2)
		for r := 0; r < rounds; r++ {
			if robust && r%37 == 0 {
				// A penalty larger than the deadline forces the timeout and
				// degraded-commit paths even on empty windows.
				a.AddPenaltyNS(500)
				b.AddPenaltyNS(500)
			}
			if err := a.PushLayer(sa.SampleRound()); err != nil {
				t.Fatal(err)
			}
			if err := b.PushLayer(sb.SampleRound()); err != nil {
				t.Fatal(err)
			}
		}
		got, want := a.Flush(), b.Flush()
		if !slices.Equal(got, want) {
			t.Fatalf("robust=%v: W0 skip changed corrections: %d vs %d", robust, len(got), len(want))
		}
		if ra, rb := a.Report(), b.Report(); ra != rb {
			t.Fatalf("robust=%v: W0 skip changed the fault ledger:\n skip %+v\n full %+v", robust, ra, rb)
		}
		if ca, cb := chromeTrace(t, ta), chromeTrace(t, tb); !bytes.Equal(ca, cb) {
			t.Fatalf("robust=%v: W0 skip and lane route changed the trace (%d vs %d bytes)", robust, len(ca), len(cb))
		}
		// An all-empty flush exercises the skip on final (closed) windows.
		for r := 0; r < d+1; r++ {
			a.PushLayer(nil)
			b.PushLayer(nil)
		}
		if got, want := a.Flush(), b.Flush(); len(got) != 0 || len(want) != 0 {
			t.Fatalf("robust=%v: empty stream committed corrections: %d vs %d", robust, len(got), len(want))
		}
	}
}

// TestStreamSlotOccupancyInvariant drives every path that writes the
// defect list — duplicate-index ingestion, the commit seam's carry toggle,
// erased rounds, backpressure shedding, degraded commits, slides, and
// final flushes — and checks after each round that it stays the window's
// defect list (checkList). Both decode routes read it in place, so an
// unsorted, duplicated or out-of-window id would reach a decode.
func TestStreamSlotOccupancyInvariant(t *testing.T) {
	const d, rounds = 5, 500
	for _, robust := range []bool{false, true} {
		var cfg Robust
		if robust {
			// A tight deadline plus periodic penalties forces timeouts,
			// degraded commits, and queue shedding into the mix.
			cfg = Robust{DeadlineNS: 250, QueueCap: 2 * d}
		}
		dec, err := NewRobust(d, d, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// p high enough that temporal corrections regularly cross the
		// commit seam and exercise the carry toggle's inserts and deletes.
		s := noise.NewRoundSampler(d, 0.03, 5, 3)
		for r := 0; r < rounds; r++ {
			switch {
			case r%23 == 11:
				dec.PushErased()
			case r%17 == 4:
				// Duplicate indices within a round must not double-count.
				ev := s.SampleRound()
				ev = append(slices.Clone(ev), ev...)
				if err := dec.PushLayer(ev); err != nil {
					t.Fatal(err)
				}
			default:
				if robust && r%31 == 7 {
					dec.AddPenaltyNS(900)
				}
				if robust && r%97 == 50 {
					// A stall longer than the queue cap: backlog shedding.
					dec.AddPenaltyNS(8000)
				}
				if err := dec.PushLayer(s.SampleRound()); err != nil {
					t.Fatal(err)
				}
			}
			checkList(t, dec, "after push")
		}
		dec.Flush()
		checkList(t, dec, "after flush")
		if rep := dec.Report(); robust && (rep.ShedRounds == 0 || rep.DegradedCommits == 0) {
			t.Fatalf("robust run shed %d rounds and degraded %d commits, want both nonzero", rep.ShedRounds, rep.DegradedCommits)
		}
	}
}

// TestStreamW0SkipCounted: quiet windows must show up on the
// afs_stream_w0_windows_total counter, bounded by the window count.
func TestStreamW0SkipCounted(t *testing.T) {
	const d = 4
	dec, err := New(d, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := registeredObs.w0Windows.Value()
	for r := 0; r < 20*d; r++ {
		dec.PushLayer(nil)
	}
	dec.Flush()
	skipped := registeredObs.w0Windows.Value() - before
	if skipped == 0 {
		t.Fatal("no weight-0 windows counted on an all-empty stream")
	}
	if w := registeredObs.windows.Value(); skipped > w {
		t.Fatalf("w0 windows %d exceed total windows %d", skipped, w)
	}
}
