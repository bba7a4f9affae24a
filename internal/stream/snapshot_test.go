package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"afs/internal/backlog"
	"afs/internal/faults"
	"afs/internal/noise"
)

// feedRounds pushes rounds [from, to) of a seeded per-round sampler through
// the decoder, carrying each through ch (when non-nil) exactly as a fleet
// link does.
func feedRounds(t *testing.T, d *Decoder, sampler *noise.RoundSampler, ch *faults.Channel, n int) {
	t.Helper()
	for r := 0; r < n; r++ {
		ev := sampler.SampleRound()
		if ch != nil {
			delivered, erased, pen := ch.Transfer(ev)
			d.AddPenaltyNS(pen)
			if erased {
				d.PushErased()
				continue
			}
			ev = delivered
		}
		if err := d.PushLayer(ev); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
}

// TestSnapshotRestoreBitIdentical proves the checkpoint contract: a fresh
// decoder restored from a mid-stream snapshot and fed the remaining rounds
// commits byte-identical corrections and reports an identical ledger,
// including under deadline enforcement, backpressure, and link faults, and
// including snapshots taken at every possible buffer fill level.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	const d, rounds = 5, 160
	cases := []struct {
		name   string
		robust Robust
		chaos  *faults.Config
	}{
		{name: "plain"},
		{name: "robust", robust: Robust{DeadlineNS: 350, QueueCap: 4}},
		{name: "chaos+robust",
			robust: Robust{DeadlineNS: 120, QueueCap: 2},
			chaos: &faults.Config{Seed: 7, DropRate: 0.05, DuplicateRate: 0.03,
				ReorderRate: 0.03, CorruptRate: 0.05, StallRate: 0.2, StallNS: 400},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for cut := 1; cut < rounds; cut += 13 {
				per := d * (d - 1)

				// Reference run: one decoder sees the whole stream.
				ref, err := NewRobust(d, 0, 0, tc.robust)
				if err != nil {
					t.Fatal(err)
				}
				var refCorr []Correction
				ref.SetSink(func(c Correction) { refCorr = append(refCorr, c) })
				var ch *faults.Channel
				if tc.chaos != nil {
					ch = faults.NewChannel(per, *tc.chaos)
				}
				sampler := noise.NewRoundSampler(d, 0.02, 11, 1)
				feedRounds(t, ref, sampler, ch, cut)
				atCut := len(refCorr)
				snap := ref.Snapshot()

				// The snapshot crosses a wire in practice: round-trip the
				// binary checkpoint encoding, and check the JSON form too.
				wire, err := DecodeSnapshot(AppendSnapshot(nil, snap))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wire, snap) {
					t.Fatalf("cut %d: binary round trip changed the snapshot:\n got  %+v\n want %+v", cut, wire, snap)
				}
				blob, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				var viaJSON Snapshot
				if err := json.Unmarshal(blob, &viaJSON); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(viaJSON, snap) {
					t.Fatalf("cut %d: JSON round trip changed the snapshot", cut)
				}

				feedRounds(t, ref, sampler, ch, rounds-cut)
				ref.Flush()
				refRep := ref.Report()

				// Restored run: a different decoder instance continues from
				// the snapshot over the identical remaining rounds (replayed
				// post-chaos, as a fleet journal stores them).
				re, err := NewRobust(d, 0, 0, tc.robust)
				if err != nil {
					t.Fatal(err)
				}
				var reCorr []Correction
				re.SetSink(func(c Correction) { reCorr = append(reCorr, c) })
				if err := re.Restore(wire); err != nil {
					t.Fatalf("restore at cut %d: %v", cut, err)
				}
				ch2 := ch
				sampler2 := sampler
				if tc.chaos != nil {
					// Replay the same link outcomes: rewind an identical
					// channel+sampler pair and skip the first cut rounds.
					ch2 = faults.NewChannel(per, *tc.chaos)
					sampler2 = noise.NewRoundSampler(d, 0.02, 11, 1)
					drop, err := New(d, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					feedRounds(t, drop, sampler2, ch2, cut)
				} else {
					sampler2 = noise.NewRoundSampler(d, 0.02, 11, 1)
					drop, err := New(d, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					feedRounds(t, drop, sampler2, nil, cut)
				}
				feedRounds(t, re, sampler2, ch2, rounds-cut)
				re.Flush()
				reRep := re.Report()

				if got, want := reCorr, refCorr[atCut:]; !sameCorrections(got, want) {
					t.Fatalf("cut %d: corrections diverge: restored %d vs reference suffix %d", cut, len(got), len(want))
				}
				// The restored ledger must equal the reference's: windows,
				// timeouts, degraded commits, shedding episodes — no drift
				// and no double count across the checkpoint boundary.
				if !reflect.DeepEqual(refRep, reRep) {
					t.Fatalf("cut %d: ledger diverged:\nref  %+v\nrest %+v", cut, refRep, reRep)
				}
				if err := reRep.CheckFinal(); err != nil {
					t.Fatalf("cut %d: restored ledger: %v", cut, err)
				}
			}
		})
	}
}

func sameCorrections(a, b []Correction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotRestoreMidEpisode pins the mid-shedding-episode contract: a
// snapshot taken while the backlog queue is inside an open shedding episode
// restores with the episode still open, and the stream's eventual Flush
// closes it exactly once — Sheds and Recoveries balance (CheckFinal), with
// no phantom recovery from the restore itself.
func TestSnapshotRestoreMidEpisode(t *testing.T) {
	const d = 5
	robust := Robust{DeadlineNS: 50, QueueCap: 1}
	dec, err := NewRobust(d, 0, 0, robust)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the queue with injected stall penalties until it sheds.
	sampler := noise.NewRoundSampler(d, 0.05, 3, 1)
	fed := 0
	for dec.queue.Sheds == 0 {
		dec.AddPenaltyNS(5000)
		if err := dec.PushLayer(sampler.SampleRound()); err != nil {
			t.Fatal(err)
		}
		fed++
		if fed > 10000 {
			t.Fatal("queue never shed")
		}
	}
	snap := dec.Snapshot()
	if !snap.Queue.Shedding {
		t.Fatal("snapshot not taken mid-episode")
	}
	if snap.Queue.Sheds != snap.Queue.Recoveries+1 {
		t.Fatalf("expected exactly one open episode, got sheds=%d recoveries=%d",
			snap.Queue.Sheds, snap.Queue.Recoveries)
	}

	re, err := NewRobust(d, 0, 0, robust)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := re.Report(); got.BacklogSheds != snap.Queue.Sheds || got.BacklogRecovers != snap.Queue.Recoveries {
		t.Fatalf("restore perturbed episode counters: %+v vs queue %+v", got, snap.Queue)
	}
	re.Flush()
	rep := re.Report()
	if err := rep.CheckFinal(); err != nil {
		t.Fatalf("flushed ledger after mid-episode restore: %v", err)
	}
	if rep.BacklogSheds != snap.Queue.Sheds || rep.BacklogRecovers != rep.BacklogSheds {
		t.Fatalf("episode not closed exactly once: %+v", rep)
	}
}

// TestSnapshotRestoreOntoPendingDecoder: Restore overwrites all dynamic
// state, a deferred decoder's pending window included. A two-layer
// snapshot restored onto a lane-built decoder that holds a full, pending
// window must read back unchanged and emit nothing, and the rounds after it
// must match a freshly restored solo twin, correction for correction and
// ledger for ledger.
func TestSnapshotRestoreOntoPendingDecoder(t *testing.T) {
	const d, w, c = 5, 5, 2
	sampler := noise.NewRoundSampler(d, 0.05, 21, 1)
	src, err := New(d, w, c)
	if err != nil {
		t.Fatal(err)
	}
	feedRounds(t, src, sampler, nil, 2)
	snap := src.Snapshot()
	if snap.Base != 0 || len(snap.Layers) != 2 {
		t.Fatalf("source snapshot holds base %d and %d layers, want 0 and 2", snap.Base, len(snap.Layers))
	}

	l := NewLanes()
	dec, err := l.NewRobust(d, w, c, Robust{})
	if err != nil {
		t.Fatal(err)
	}
	var out []Correction
	dec.SetSink(func(c Correction) { out = append(out, c) })
	feedRounds(t, dec, sampler, nil, w)
	if !dec.pending {
		t.Fatal("a full deferred window is not pending")
	}
	if err := dec.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := dec.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatalf("snapshot after restoring onto a pending decoder:\n got  %+v\n want %+v", got, snap)
	}
	if len(out) != 0 {
		t.Fatalf("restore and snapshot emitted %d corrections", len(out))
	}

	twin, err := New(d, w, c)
	if err != nil {
		t.Fatal(err)
	}
	var twinOut []Correction
	twin.SetSink(func(c Correction) { twinOut = append(twinOut, c) })
	if err := twin.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 60; r++ {
		ev := sampler.SampleRound()
		if err := dec.PushLayer(ev); err != nil {
			t.Fatal(err)
		}
		if err := twin.PushLayer(ev); err != nil {
			t.Fatal(err)
		}
		l.Resolve([]*Decoder{dec})
	}
	l.Flush(dec)
	twin.Flush()
	if !sameCorrections(out, twinOut) {
		t.Fatalf("restored lane-built decoder diverges from its restored twin (%d vs %d corrections)", len(out), len(twinOut))
	}
	if got, want := dec.Report(), twin.Report(); got != want {
		t.Fatalf("ledger diverges:\n got  %+v\n want %+v", got, want)
	}
}

// TestRestoreCanonicalizesLayers: a snapshot layer may list its indices in
// any order and repeat them, as PushLayer accepts a round. A JSON snapshot
// whose layers are reversed and doubled restores to the same state as the
// canonical layers: Snapshot returns the canonical form, and the two
// decoders commit identical corrections and ledgers over further rounds.
func TestRestoreCanonicalizesLayers(t *testing.T) {
	const d, w, c = 5, 9, 3
	robust := Robust{DeadlineNS: 350, QueueCap: 4}
	sampler := noise.NewRoundSampler(d, 0.05, 31, 1)
	src, err := NewRobust(d, w, c, robust)
	if err != nil {
		t.Fatal(err)
	}
	feedRounds(t, src, sampler, nil, 2*w+4)
	snap := src.Snapshot()
	messy := snap
	messy.Layers = make([][]int32, len(snap.Layers))
	multi := 0
	for i, layer := range snap.Layers {
		rev := slices.Clone(layer)
		slices.Reverse(rev)
		messy.Layers[i] = append(rev, layer...)
		if len(layer) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatalf("no snapshot layer holds two indices to reorder: %v", snap.Layers)
	}
	blob, err := json.Marshal(messy)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON Snapshot
	if err := json.Unmarshal(blob, &fromJSON); err != nil {
		t.Fatal(err)
	}

	var outs [2][]Correction
	var decs [2]*Decoder
	for i, s := range []Snapshot{snap, fromJSON} {
		dec, err := NewRobust(d, w, c, robust)
		if err != nil {
			t.Fatal(err)
		}
		dec.SetSink(func(c Correction) { outs[i] = append(outs[i], c) })
		if err := dec.Restore(s); err != nil {
			t.Fatal(err)
		}
		if got := dec.Snapshot(); !reflect.DeepEqual(got, snap) {
			t.Fatalf("restore %d: snapshot not canonical:\n got  %+v\n want %+v", i, got, snap)
		}
		decs[i] = dec
	}
	for r := 0; r < 100; r++ {
		ev := sampler.SampleRound()
		for _, dec := range decs {
			if err := dec.PushLayer(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, dec := range decs {
		dec.Flush()
	}
	if len(outs[0]) == 0 || !sameCorrections(outs[0], outs[1]) {
		t.Fatalf("messy restore commits %d corrections, canonical %d, or they differ", len(outs[1]), len(outs[0]))
	}
	if got, want := decs[1].Report(), decs[0].Report(); got != want {
		t.Fatalf("ledger diverges:\n got  %+v\n want %+v", got, want)
	}
}

// TestRestoreRejectsMalformed exercises the validation guards: restoring
// never partially applies a bad snapshot.
func TestRestoreRejectsMalformed(t *testing.T) {
	dec, err := New(5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.PushLayer([]int32{3}); err != nil {
		t.Fatal(err)
	}
	before := dec.Snapshot()

	bad := []Snapshot{
		{Distance: 7, Window: 7, Commit: 3}, // shape mismatch
		{Distance: 5, Window: 5, Commit: 2, Layers: make([][]int32, 5), Erased: make([]bool, 5)}, // full window
		{Distance: 5, Window: 5, Commit: 2, Layers: [][]int32{{99}}, Erased: []bool{false}},      // index range
		{Distance: 5, Window: 5, Commit: 2, Layers: [][]int32{{1}}, Erased: []bool{}},            // flag count
		{Distance: 5, Window: 5, Commit: 2, Base: -1},                                            // negative base
		{Distance: 5, Window: 5, Commit: 2, PenaltyNS: math.NaN()},                               // NaN penalty
		{Distance: 5, Window: 5, Commit: 2, PenaltyNS: math.Inf(1)},                              // Inf penalty
		{Distance: 5, Window: 5, Commit: 2, PenaltyNS: -1},                                       // negative penalty
		{Distance: 5, Window: 5, Commit: 2, Queue: backlog.QueueState{NowNS: -1e18}},             // negative arrival clock
		{Distance: 5, Window: 5, Commit: 2, Queue: backlog.QueueState{FreeNS: -1}},               // negative server clock
		{Distance: 5, Window: 5, Commit: 2, Queue: backlog.QueueState{NowNS: math.NaN()}},        // NaN arrival clock
		{Distance: 5, Window: 5, Commit: 2, Queue: backlog.QueueState{FreeNS: math.Inf(1)}},      // Inf server clock
		{Distance: 5, Window: 5, Commit: 2, Queue: backlog.QueueState{Shedding: true}},           // open episode never counted
		{Distance: 5, Window: 5, Commit: 2, Queue: backlog.QueueState{Sheds: 2, Recoveries: 1}},  // episode neither open nor recovered
		{Distance: 5, Window: 5, Commit: 2, Queue: backlog.QueueState{Recoveries: 1}},            // recovery without a shed
		{Distance: 5, Window: 5, Commit: 2, Ledger: faults.Report{PenaltyNS: math.NaN()}},        // NaN ledger penalty
		{Distance: 5, Window: 5, Commit: 2, Ledger: faults.Report{PenaltyNS: -1}},                // negative ledger penalty
	}
	for i, s := range bad {
		if err := dec.Restore(s); err == nil {
			t.Fatalf("bad snapshot %d accepted", i)
		}
	}
	if got := dec.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed restore mutated decoder: %+v vs %+v", got, before)
	}

	// A checkpoint that was corrupted in storage does not even unmarshal —
	// the caller's decode error fires before Restore ever runs. Pin that the
	// standard round trip catches the truncation rather than yielding a
	// zero-valued (and therefore shape-rejected) snapshot.
	blob, err := json.Marshal(before)
	if err != nil {
		t.Fatal(err)
	}
	var trunc Snapshot
	if err := json.Unmarshal(blob[:len(blob)/2], &trunc); err == nil {
		if err := dec.Restore(trunc); err == nil {
			t.Fatal("truncated checkpoint restored cleanly")
		}
	}
	var garbled Snapshot
	if err := json.Unmarshal([]byte(`{"distance":5,"window":5,"commit":2,"penalty_ns":"NaN"}`), &garbled); err == nil {
		if err := dec.Restore(garbled); err == nil {
			t.Fatal("garbled checkpoint restored cleanly")
		}
	}
}

// TestSnapshotBinaryRejectsCorruption pins the structural checks of
// DecodeSnapshot: every truncation of a valid encoding fails, and so do a
// wrong magic byte, trailing bytes, a non-minimal varint and a shedding
// flag other than 0 or 1.
func TestSnapshotBinaryRejectsCorruption(t *testing.T) {
	snap := Snapshot{
		Distance: 5, Window: 5, Commit: 2, Base: 300,
		Layers:    [][]int32{{1, 7, 19}, nil, {0}},
		Erased:    []bool{false, true, false},
		PenaltyNS: 12.5,
		Queue:     backlog.QueueState{NowNS: 1e6, FreeNS: 1.2e6, Shedding: true, Sheds: 3, Recoveries: 2},
		Ledger:    faults.Report{Windows: 60, Timeouts: 2, ShedRounds: 4, PenaltyNS: 99},
	}
	enc := AppendSnapshot(nil, snap)
	got, err := DecodeSnapshot(enc)
	if err != nil || !reflect.DeepEqual(got, snap) {
		t.Fatalf("round trip: %v\n got  %+v\n want %+v", err, got, snap)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeSnapshot(enc[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded", n, len(enc))
		}
	}
	bad := map[string][]byte{
		"magic":    append([]byte{snapMagic + 1}, enc[1:]...),
		"trailing": append(append([]byte(nil), enc...), 0),
		// Distance 5 as the two-byte varint 0x85 0x00.
		"non-minimal varint": append([]byte{snapMagic, 0x85, 0x00}, enc[2:]...),
	}
	// From the end: the ledger's f64, its 17 counters (one byte each at
	// these values), Recoveries and Sheds (one byte each), then the flag.
	flag := append([]byte(nil), enc...)
	flag[len(enc)-8-17-2-1] = 2
	bad["shedding flag"] = flag
	for name, b := range bad {
		if _, err := DecodeSnapshot(b); err == nil {
			t.Fatalf("%s: corrupt encoding decoded", name)
		}
	}
}

// FuzzSnapshotBinary feeds arbitrary bytes to DecodeSnapshot. Decoding
// never panics; whatever decodes re-encodes to the identical bytes (one
// encoding per state); and a decoded snapshot that Restore accepts reads
// back unchanged through Snapshot.
func FuzzSnapshotBinary(f *testing.F) {
	const d = 3
	seed := func(robust Robust, rounds int) []byte {
		dec, err := NewRobust(d, 0, 0, robust)
		if err != nil {
			f.Fatal(err)
		}
		sampler := noise.NewRoundSampler(d, 0.08, 5, 1)
		for r := 0; r < rounds; r++ {
			dec.AddPenaltyNS(float64(r % 3 * 700))
			if r%5 == 4 {
				dec.PushErased()
				continue
			}
			if err := dec.PushLayer(sampler.SampleRound()); err != nil {
				f.Fatal(err)
			}
		}
		return AppendSnapshot(nil, dec.Snapshot())
	}
	f.Add(seed(Robust{}, 0))
	f.Add(seed(Robust{}, 7))
	f.Add(seed(Robust{DeadlineNS: 300, QueueCap: 2}, 40))
	f.Add([]byte{snapMagic})
	f.Add([]byte{})

	// One decoder serves every input: Restore overwrites all dynamic state
	// or, on error, changes nothing. Restore rejects any other shape, and a
	// decoder built for an arbitrary decoded shape could be huge.
	dec, err := New(d, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if re := AppendSnapshot(nil, s); !bytes.Equal(re, data) {
			t.Fatalf("snapshot does not re-encode canonically:\n in  %x\n out %x", data, re)
		}
		if err := dec.Restore(s); err != nil {
			return
		}
		if got := dec.Snapshot(); !reflect.DeepEqual(got, s) {
			t.Fatalf("restored decoder snapshots differently:\n got  %+v\n want %+v", got, s)
		}
	})
}
