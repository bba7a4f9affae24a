package bandwidth

import (
	"testing"
	"testing/quick"
)

// TestPaperReferencePoints pins the numbers quoted in §VI-A and Fig. 13.
func TestPaperReferencePoints(t *testing.T) {
	if got := BitsPerRound(1000, 11); got != 220000 {
		t.Fatalf("bits/round = %d, want 220000", got)
	}
	cases := []struct {
		window float64
		want   float64
	}{
		{400, 550},
		{100, 2200},
		{1000, 220},
	}
	for _, c := range cases {
		if got := RequiredGbps(1000, 11, c.window); got != c.want {
			t.Errorf("bandwidth at t=%.0fns = %v Gbps, paper %v", c.window, got, c.want)
		}
	}
}

func TestCompressedGbps(t *testing.T) {
	if got := CompressedGbps(1000, 11, 400, 30); got != 550.0/30 {
		t.Fatalf("compressed bandwidth = %v", got)
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero window", func() { RequiredGbps(1, 3, 0) })
	mustPanic("zero ratio", func() { CompressedGbps(1, 3, 100, 0) })
}

// TestBandwidthScalesLinearly: in L and quadratically in d.
func TestBandwidthScaling(t *testing.T) {
	f := func(lRaw uint16, dRaw uint8) bool {
		l := int(lRaw%1000) + 1
		d := 3 + int(dRaw%20)
		if BitsPerRound(2*l, d) != 2*BitsPerRound(l, d) {
			return false
		}
		return BitsPerRound(l, d) == 2*int64(d)*int64(d-1)*int64(l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
