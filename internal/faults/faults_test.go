package faults

import (
	"math/rand/v2"
	"testing"
)

// randRounds generates a reproducible stream of event rounds over per
// ancillas.
func randRounds(seed uint64, per, n int) [][]int32 {
	rng := rand.New(rand.NewPCG(seed, 1))
	rounds := make([][]int32, n)
	for i := range rounds {
		var ev []int32
		for x := 0; x < per; x++ {
			if rng.Float64() < 0.05 {
				ev = append(ev, int32(x))
			}
		}
		rounds[i] = ev
	}
	return rounds
}

func chaosConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		DropRate:      0.05,
		DuplicateRate: 0.04,
		ReorderRate:   0.03,
		CorruptRate:   0.08,
		StallRate:     0.02,
		InflateNS:     1,
	}
}

func TestChannelDeterministic(t *testing.T) {
	const per = 110
	rounds := randRounds(3, per, 2000)
	a := NewChannel(per, chaosConfig(99))
	b := NewChannel(per, chaosConfig(99))
	for i, ev := range rounds {
		da, ea, pa := a.Transfer(ev)
		db, eb, pb := b.Transfer(ev)
		if ea != eb || pa != pb || len(da) != len(db) {
			t.Fatalf("round %d diverged: (%v,%v,%v) vs (%v,%v,%v)", i, len(da), ea, pa, len(db), eb, pb)
		}
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("round %d event %d diverged", i, j)
			}
		}
	}
	if a.Report() != b.Report() {
		t.Fatalf("reports diverged:\n%v\n%v", a.Report(), b.Report())
	}
}

func TestChannelAccountingIdentities(t *testing.T) {
	const per = 110
	for _, cfg := range []Config{
		{Seed: 1}, // fault-free
		chaosConfig(2),
		{Seed: 3, DropRate: 0.5, RetryBudget: 1},
		{Seed: 4, CorruptRate: 0.9, CorruptBits: 4},
		{Seed: 5, DuplicateRate: 0.5, ReorderRate: 0.5},
		{Seed: 6, DropRate: 0.95, RetryBudget: -1}, // heavy erasure
	} {
		ch := NewChannel(per, cfg)
		for _, ev := range randRounds(cfg.Seed, per, 3000) {
			ch.Transfer(ev)
		}
		rep := ch.Report()
		if err := rep.Check(); err != nil {
			t.Errorf("cfg %+v: %v\n%v", cfg, err, rep)
		}
		if rep.Rounds != 3000 {
			t.Errorf("cfg %+v: %d rounds recorded, want 3000", cfg, rep.Rounds)
		}
	}
}

func TestChannelFaultFreeIsTransparent(t *testing.T) {
	const per = 110
	ch := NewChannel(per, Config{Seed: 7})
	for _, ev := range randRounds(11, per, 500) {
		got, erased, pen := ch.Transfer(ev)
		if erased || pen != 0 {
			t.Fatalf("fault-free transfer erased=%v pen=%v", erased, pen)
		}
		if len(got) != len(ev) {
			t.Fatalf("fault-free transfer changed event count: %d != %d", len(got), len(ev))
		}
		for i := range got {
			if got[i] != ev[i] {
				t.Fatalf("fault-free transfer changed event %d", i)
			}
		}
	}
	rep := ch.Report()
	if rep.CleanRounds != rep.Rounds || rep.Injected.Link() != 0 {
		t.Fatalf("fault-free run not clean: %v", rep)
	}
}

func TestChannelErasesPastRetryBudget(t *testing.T) {
	ch := NewChannel(20, Config{Seed: 8, DropRate: 1})
	_, erased, pen := ch.Transfer([]int32{1, 2})
	if !erased {
		t.Fatal("certain drop did not erase the round")
	}
	if pen <= 0 {
		t.Fatal("erasure charged no retry backoff")
	}
	rep := ch.Report()
	if rep.ErasedRounds != 1 || rep.Retries != uint64(DefaultRetryBudget) {
		t.Fatalf("erasure ledger wrong: %v", rep)
	}
	if rep.Injected.Drops != uint64(1+DefaultRetryBudget) || rep.Detected != rep.Injected.Drops {
		t.Fatalf("drop attempts unaccounted: %v", rep)
	}
}

func TestChannelDetectsCorruption(t *testing.T) {
	// Single-bit corruption can never beat the CRC: with retries disabled
	// every corrupted round must surface as erased, never as wrong events.
	const per = 110
	ch := NewChannel(per, Config{Seed: 9, CorruptRate: 1, RetryBudget: -1})
	rounds := randRounds(13, per, 2000)
	for _, ev := range rounds {
		got, erased, _ := ch.Transfer(ev)
		if !erased {
			t.Fatalf("single-bit corruption slipped through: delivered %d events", len(got))
		}
	}
	rep := ch.Report()
	if rep.Undetected != 0 || rep.CorruptRounds != 0 {
		t.Fatalf("CRC missed a single-bit flip: %v", rep)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestChannelResetRewindsDeterministically(t *testing.T) {
	const per = 50
	rounds := randRounds(17, per, 300)
	ch := NewChannel(per, chaosConfig(21))
	var first []int
	for _, ev := range rounds {
		got, erased, _ := ch.Transfer(ev)
		if erased {
			first = append(first, -1)
		} else {
			first = append(first, len(got))
		}
	}
	ch.Reset(21)
	for i, ev := range rounds {
		got, erased, _ := ch.Transfer(ev)
		want := first[i]
		if erased && want != -1 || !erased && len(got) != want {
			t.Fatalf("round %d: replay diverged after Reset", i)
		}
	}
}

func TestTransferZeroAllocFaultFree(t *testing.T) {
	const per = 110
	ch := NewChannel(per, Config{Seed: 40})
	ev := []int32{3, 17, 44, 91, 109}
	ch.Transfer(ev) // reach steady-state buffer capacities
	allocs := testing.AllocsPerRun(500, func() {
		ch.Transfer(ev)
	})
	if allocs != 0 {
		t.Fatalf("fault-free Transfer allocates %.1f/op, want 0", allocs)
	}
}

func TestTransferZeroAllocUnderChaos(t *testing.T) {
	const per = 110
	ch := NewChannel(per, chaosConfig(41))
	ev := []int32{3, 17, 44, 91, 109}
	for i := 0; i < 200; i++ {
		ch.Transfer(ev)
	}
	allocs := testing.AllocsPerRun(500, func() {
		ch.Transfer(ev)
	})
	if allocs != 0 {
		t.Fatalf("chaos Transfer allocates %.1f/op, want 0", allocs)
	}
}

// TestCheckFinalCatchesEpisodeDrift: CheckFinal extends the ledger
// identities to flushed runs — every shedding episode entered must have
// been closed. An imbalance is exactly what a reset that silently dropped
// the shedding flag used to leak.
func TestCheckFinalCatchesEpisodeDrift(t *testing.T) {
	rep := Report{
		Rounds: 10, CleanRounds: 10,
		Windows: 5, BacklogSheds: 2, BacklogRecovers: 2,
	}
	if err := rep.CheckFinal(); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	rep.BacklogRecovers = 1
	if err := rep.Check(); err != nil {
		t.Fatalf("Check must tolerate an open episode (live snapshot): %v", err)
	}
	if err := rep.CheckFinal(); err == nil {
		t.Fatal("CheckFinal accepted a never-closed shedding episode")
	}
	// CheckFinal still enforces everything Check does.
	rep.BacklogRecovers = 3
	if err := rep.CheckFinal(); err == nil {
		t.Fatal("CheckFinal accepted more recoveries than episodes")
	}
}
