package stream

import (
	"os"
	"testing"
	"time"

	"afs/internal/faults"
	"afs/internal/noise"
)

// TestABProbe is a diagnostic A/B measurement of what the single-stream
// decoder's optional layers cost on identical d=11, p=1e-3 rounds,
// interleaved in sub-millisecond segments so machine noise cancels in the
// ratio. It decodes ~70M rounds and asserts nothing — run it on demand
// with AFS_AB_PROBE=1.
//
// The hardened-link tax pits decoder A, fed through a fault-free
// faults.Channel, against a plain decoder B on the same rounds:
//
//   - control: A plain — the channel's bookkeeping alone;
//   - robust: A with the 350 ns deadline and a bounded backlog;
//   - framed: robust A over a ForceFraming channel, which pays the CRC
//     encode/verify/parse round trip on every round (the cost profile
//     while link faults are firing).
//
// The observability overhead (budget 2%) pits decoders built with the
// metrics sink installed against decoders built with it removed
// (SetObsEnabled at construction), plain and robust.
func TestABProbe(t *testing.T) {
	if os.Getenv("AFS_AB_PROBE") == "" {
		t.Skip("measurement probe; set AFS_AB_PROBE=1 to run (~20s, no assertions)")
	}
	const d = 11
	s := noise.NewRoundSampler(d, 1e-3, 1234, 1)
	pool := make([][]int32, 1<<16)
	for i := range pool {
		pool[i] = append([]int32(nil), s.SampleRound()...)
	}
	const segRounds = 2000
	const segments = 10000 // 10M rounds per side
	newDecoder := func(robust bool) *Decoder {
		var cfg Robust
		if robust {
			cfg = Robust{DeadlineNS: 350, QueueCap: 16}
		}
		dec, err := NewRobust(d, d, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dec.SetSink(func(Correction) {})
		return dec
	}

	link := func(name string, robust bool, cfg faults.Config) {
		a := newDecoder(robust)
		ch := faults.NewChannel(d*(d-1), cfg)
		b := newDecoder(false)
		for i := 0; i < 4*d; i++ {
			a.PushLayer(pool[i%len(pool)])
			b.PushLayer(pool[i%len(pool)])
		}
		var aSecs, bSecs float64
		for seg := 0; seg < segments; seg++ {
			off := seg * segRounds
			if seg%2 == 0 {
				t0 := time.Now()
				for i := 0; i < segRounds; i++ {
					delivered, erased, pen := ch.Transfer(pool[(off+i)%len(pool)])
					a.AddPenaltyNS(pen)
					if erased {
						a.PushErased()
						continue
					}
					a.PushLayer(delivered)
				}
				aSecs += time.Since(t0).Seconds()
			} else {
				t0 := time.Now()
				for i := 0; i < segRounds; i++ {
					b.PushLayer(pool[(off+i)%len(pool)])
				}
				bSecs += time.Since(t0).Seconds()
			}
		}
		n := float64(segRounds * segments / 2)
		t.Logf("%-24s A %.0f r/s  B %.0f r/s  ratio %.3f", name, n/aSecs, n/bSecs, aSecs/bSecs)
	}

	// obsAB builds two instrumented and two uninstrumented decoders in the
	// creation order on, off, off, on: an A/A control shows the second
	// decoder created of a pair runs ~1% faster (allocation locality), so
	// each side takes each position once and the bias cancels in the
	// per-side sums. Every decoder pushes the identical rounds in every
	// segment, and the order within a segment rotates to cancel drift.
	obsAB := func(name string, robust bool) {
		const obsSegments = 1000 // 4M rounds per side
		mk := func(on bool) *Decoder {
			SetObsEnabled(on)
			defer SetObsEnabled(true)
			return newDecoder(robust)
		}
		decs := []*Decoder{mk(true), mk(false), mk(false), mk(true)}
		on := []bool{true, false, false, true}
		for i := 0; i < 4*d; i++ {
			for _, dec := range decs {
				dec.PushLayer(pool[i%len(pool)])
			}
		}
		var onSecs, offSecs float64
		for seg := 0; seg < obsSegments; seg++ {
			off := seg * segRounds
			for k := range decs {
				j := (seg + k) % len(decs)
				t0 := time.Now()
				for i := 0; i < segRounds; i++ {
					decs[j].PushLayer(pool[(off+i)%len(pool)])
				}
				if secs := time.Since(t0).Seconds(); on[j] {
					onSecs += secs
				} else {
					offSecs += secs
				}
			}
		}
		n := float64(2 * segRounds * obsSegments)
		t.Logf("%-24s on %.0f r/s  off %.0f r/s  overhead %.2f%% (budget 2%%)",
			name, n/onSecs, n/offSecs, 100*(1-offSecs/onSecs))
	}

	link("control: A plain+chan", false, faults.Config{Seed: 5})
	link("robust:  A robust+chan", true, faults.Config{Seed: 5})
	link("framed:  A robust+framed", true, faults.Config{Seed: 5, ForceFraming: true})
	obsAB("obs:     plain", false)
	obsAB("obs:     robust", true)
}
