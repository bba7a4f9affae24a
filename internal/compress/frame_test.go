package compress

import (
	"math/rand/v2"
	"testing"
)

func TestRoundFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, per := range []int{6, 20, 110, 930} {
		var buf []byte
		var out []int32
		for trial := 0; trial < 200; trial++ {
			n := rng.IntN(per / 2)
			seen := map[int32]bool{}
			var events []int32
			for len(events) < n {
				x := int32(rng.IntN(per))
				if !seen[x] {
					seen[x] = true
					events = append(events, x)
				}
			}
			sortInt32s(events)
			seq := rng.Uint32()
			buf = AppendRoundFrame(buf[:0], seq, events, per)
			gotSeq, got, err := DecodeRoundFrame(buf, per, out)
			out = got
			if err != nil {
				t.Fatalf("per=%d n=%d: decode: %v", per, n, err)
			}
			if gotSeq != seq {
				t.Fatalf("seq %d round-tripped to %d", seq, gotSeq)
			}
			if len(got) != len(events) {
				t.Fatalf("per=%d: %d events round-tripped to %d", per, len(events), len(got))
			}
			for i := range got {
				if got[i] != events[i] {
					t.Fatalf("per=%d: event %d: got %d want %d", per, i, got[i], events[i])
				}
			}
		}
	}
}

func TestRoundFrameDetectsSingleBitFlips(t *testing.T) {
	per := 110
	events := []int32{3, 17, 44, 91, 109}
	frame := AppendRoundFrame(nil, 12345, events, per)
	var out []int32
	for bit := 0; bit < len(frame)*8; bit++ {
		corrupt := append([]byte(nil), frame...)
		corrupt[bit>>3] ^= 1 << (uint(bit) & 7)
		if _, _, err := DecodeRoundFrame(corrupt, per, out); err == nil {
			t.Fatalf("single-bit flip at bit %d went undetected", bit)
		}
	}
}

func TestRoundFrameRejectsGarbage(t *testing.T) {
	var out []int32
	cases := [][]byte{
		nil,
		{},
		{0xA5},
		make([]byte, frameHeaderBytes+3),
		AppendRoundFrame(nil, 1, []int32{0, 1}, 20)[:5],
	}
	for i, c := range cases {
		if _, _, err := DecodeRoundFrame(c, 20, out); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
}

func TestRoundFrameWrongPerFailsCleanly(t *testing.T) {
	// A frame encoded for a larger code must not decode under a smaller
	// per: bitmap payloads change length and sparse indices go out of range.
	frame := AppendRoundFrame(nil, 9, []int32{2, 50, 88}, 90)
	if _, _, err := DecodeRoundFrame(frame, 30, nil); err == nil {
		t.Fatal("frame for per=90 decoded under per=30")
	}
}

func TestRoundFrameZeroAlloc(t *testing.T) {
	per := 110
	events := []int32{3, 17, 44, 91}
	buf := AppendRoundFrame(nil, 0, events, per)
	out := make([]int32, 0, per)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendRoundFrame(buf[:0], 42, events, per)
		_, got, err := DecodeRoundFrame(buf, per, out)
		if err != nil {
			t.Fatal(err)
		}
		out = got[:0]
	})
	if allocs != 0 {
		t.Fatalf("steady-state frame encode+decode allocates %.1f/op, want 0", allocs)
	}
}

func sortInt32s(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// FuzzRoundFrame feeds arbitrary bytes to the frame decoder: corrupt input
// must fail detection (or decode to a well-formed event list), never panic,
// and a valid re-encode of whatever decoded must round-trip.
func FuzzRoundFrame(f *testing.F) {
	f.Add([]byte{}, 20)
	f.Add(AppendRoundFrame(nil, 7, []int32{1, 5, 19}, 20), 20)
	f.Add(AppendRoundFrame(nil, 0xffffffff, nil, 6), 6)
	big := make([]int32, 0, 64)
	for i := int32(0); i < 64; i++ {
		big = append(big, i*2)
	}
	f.Add(AppendRoundFrame(nil, 3, big, 200), 200)
	f.Fuzz(func(t *testing.T, data []byte, per int) {
		if per < 1 || per > 1<<16 {
			return
		}
		seq, events, err := DecodeRoundFrame(data, per, nil)
		if err != nil {
			return
		}
		prev := int32(-1)
		for _, x := range events {
			if x <= prev || int(x) >= per {
				t.Fatalf("decoded event list invalid: %v (per=%d)", events, per)
			}
			prev = x
		}
		re := AppendRoundFrame(nil, seq, events, per)
		seq2, events2, err := DecodeRoundFrame(re, per, nil)
		if err != nil || seq2 != seq || len(events2) != len(events) {
			t.Fatalf("re-encode round-trip failed: %v seq %d->%d n %d->%d",
				err, seq, seq2, len(events), len(events2))
		}
	})
}
