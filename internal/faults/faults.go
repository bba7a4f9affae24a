// Package faults is the deterministic fault-injection ("chaos") layer for
// the streaming decoder: a seeded, reproducible model of everything that
// can go wrong on the classical side of a fault-tolerant quantum computer's
// decoding path. The paper's CDA section (§V, Eq. 4) makes timeout failures
// a first-class failure mode — a decode past its deadline is as fatal as a
// logical error — and the FPGA-decoder literature treats the qubit→decoder
// link and the per-round deadline as the real-time contract the classical
// hardware must survive. This package supplies the adversary side of that
// contract:
//
//   - dropped, duplicated and reordered syndrome rounds on the link;
//   - bit flips on the CRC-framed (and payload-compressed) wire format,
//     detected by the receiver unless the flips forge a valid frame;
//   - artificial decoder stalls and per-window service-time inflation,
//     charged against the stream decoder's deadline budget.
//
// A Channel wraps the transfer of one stream's rounds. It is push-style —
// Transfer(events) returns what the decoder receives — so stream.Decoder,
// stream.Engine and cmd/afs-sim all compose with it without duplicating
// the injection logic. The receiver
// retries a failed round up to a bounded budget with exponential backoff
// (penalized in model nanoseconds) and past the budget marks the round
// *erased*: the decoder gets an empty, flagged layer and the next window
// re-derives context instead of the stream stalling. Every injected fault
// lands in a Report whose identities Check verifies.
//
// Determinism: a Channel draws from its own seeded PCG, and faults depend
// only on the channel's own history — never on wall-clock time or on other
// streams — so a fixed-seed chaos run is bit-identical across worker
// counts.
package faults

import (
	"bytes"
	"math/rand/v2"

	"afs/internal/compress"
)

// Defaults for Config fields left zero.
const (
	// DefaultRetryBudget is the number of retransmissions before a round is
	// declared erased.
	DefaultRetryBudget = 2
	// DefaultRetryNS is the first retransmission's backoff penalty; each
	// further retry doubles it.
	DefaultRetryNS = 40.0
	// DefaultStallNS is the service-time inflation of one injected stall.
	DefaultStallNS = 200.0
	// DefaultReorderNS is the latency cost of the receiver's one-round
	// reorder buffer absorbing an out-of-order frame.
	DefaultReorderNS = 40.0
)

// Config parameterizes a Channel. The zero value injects nothing and models
// a perfect wire: since no link fault can occur, the CRC frame round-trip is
// provably the identity (a property the codec tests pin), so the channel
// elides it and the fault-free overhead reduces to bookkeeping. Set
// ForceFraming to run the full encode/verify/parse path regardless.
type Config struct {
	// Seed makes the injection sequence reproducible. Distinct streams must
	// use distinct seeds.
	Seed uint64
	// DropRate, DuplicateRate, ReorderRate, CorruptRate are per-transmission
	// fault probabilities in [0,1).
	DropRate      float64
	DuplicateRate float64
	ReorderRate   float64
	CorruptRate   float64
	// CorruptBits is the number of wire bits flipped per corruption event;
	// 0 selects 1. Higher values exercise the CRC's undetected-error floor.
	CorruptBits int
	// StallRate is the per-round probability of an artificial decoder
	// stall of StallNS (0 selects DefaultStallNS) model nanoseconds.
	StallRate float64
	StallNS   float64
	// InflateNS is a constant per-round service-time inflation, modeling a
	// decoder running slower than provisioned.
	InflateNS float64
	// RetryBudget bounds retransmissions per round (0 selects
	// DefaultRetryBudget; negative disables retries). RetryNS is the first
	// retry's backoff penalty, doubling per attempt (0 selects
	// DefaultRetryNS).
	RetryBudget int
	RetryNS     float64
	// ForceFraming runs the CRC encode/verify/parse round-trip even when no
	// link-fault class is active, so the framed path's host cost can be
	// measured in isolation.
	ForceFraming bool
}

// linkActive reports whether any wire-visible fault class can fire (stalls
// and inflation are latency-only and never touch the frame bytes).
func (c Config) linkActive() bool {
	return c.DropRate > 0 || c.DuplicateRate > 0 || c.ReorderRate > 0 ||
		c.CorruptRate > 0 || c.ForceFraming
}

func (c Config) retryBudget() int {
	if c.RetryBudget < 0 {
		return 0
	}
	if c.RetryBudget == 0 {
		return DefaultRetryBudget
	}
	return c.RetryBudget
}

func (c Config) retryNS() float64 {
	if c.RetryNS <= 0 {
		return DefaultRetryNS
	}
	return c.RetryNS
}

func (c Config) stallNS() float64 {
	if c.StallNS <= 0 {
		return DefaultStallNS
	}
	return c.StallNS
}

func (c Config) corruptBits() int {
	if c.CorruptBits <= 0 {
		return 1
	}
	return c.CorruptBits
}

// StreamSeed derives stream i's channel seed from a fleet-wide base seed.
// Every fleet driver — the in-process stream.Engine, the sharded fleet
// router, the robustness harness — must use this one formula, so a fleet
// run and its in-process reference inject the identical fault sequence per
// stream and bit-identity checks across deployment shapes are meaningful.
func StreamSeed(base uint64, stream int) uint64 {
	return base + uint64(stream)*0x9e3779b9
}

// Channel models one stream's qubit→decoder link under injected faults.
// Not safe for concurrent use; in a fleet each stream owns one Channel,
// advanced only by the worker that owns the stream.
type Channel struct {
	cfg     Config
	per     int
	link    bool // any wire-visible fault class active (or framing forced)
	perfect bool // no fault class at all: Transfer is identity + counters
	rng     *rand.Rand
	pcg     *rand.PCG
	seq     uint32
	rep     Report
	omShard int // padded-slot hint for the live link ledger (linkObs)

	frame   []byte  // reused encode buffer
	corrupt []byte  // reused corrupted-copy buffer
	out     []int32 // reused decode buffer

	// perfectRounds batches Rounds/CleanRounds for the perfect-wire fast
	// path so its Transfer prologue stays small enough to inline; Report
	// folds it back in.
	perfectRounds uint64
}

// NewChannel builds a channel for rounds whose events index [0, per).
func NewChannel(per int, cfg Config) *Channel {
	pcg := rand.NewPCG(cfg.Seed, 0xc4a05)
	return &Channel{
		cfg:     cfg,
		per:     per,
		link:    cfg.linkActive(),
		perfect: !cfg.linkActive() && cfg.StallRate <= 0 && cfg.InflateNS <= 0,
		pcg:     pcg,
		rng:     rand.New(pcg),
		out:     make([]int32, 0, per),
		omShard: int(linkObsShardSeq.Add(1) - 1),
	}
}

// Reset rewinds the channel onto a fresh deterministic fault stream and
// clears the report.
func (c *Channel) Reset(seed uint64) {
	c.pcg.Seed(seed, 0xc4a05)
	c.seq = 0
	c.rep = Report{}
	c.perfectRounds = 0
}

// Report returns a snapshot of the link-side fault ledger.
func (c *Channel) Report() Report {
	rep := c.rep
	rep.Rounds += c.perfectRounds
	rep.CleanRounds += c.perfectRounds
	return rep
}

// roll draws a Bernoulli(rate) without consuming randomness when the rate
// is zero, so inactive fault classes cost nothing on the hot path.
func (c *Channel) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return c.rng.Float64() < rate
}

// Transfer passes one round through the faulty link and returns what the
// decoder receives: the delivered events (aliasing an internal buffer
// reused by the next call — possibly *wrong* events, if corruption beat the
// CRC), whether the round was erased past the retry budget, and the model
// nanoseconds of injected service-time penalty (stalls, inflation, retry
// backoff, reorder buffering) to charge against the decode deadline. The
// fault-free steady state allocates nothing.
func (c *Channel) Transfer(events []int32) (delivered []int32, erased bool, penaltyNS float64) {
	if c.perfect {
		// No fault class at all: the transfer is the identity. This branch
		// is small enough to inline into the per-round push loop, which is
		// what keeps an always-hardened but fault-free stream within a few
		// percent of a bare one. (seq is not advanced — only the framed
		// path reads it, and a channel is perfect for its whole lifetime.)
		c.perfectRounds++
		return events, false, 0
	}
	return c.transfer(events)
}

func (c *Channel) transfer(events []int32) (delivered []int32, erased bool, penaltyNS float64) {
	// Publish this round's ledger movement to the live metrics on the way
	// out. The snapshot-diff keeps the fault logic free of metric calls,
	// and the open-coded defer plus the stack copies stay allocation-free.
	before := c.rep
	defer func() { linkObs.record(c.omShard, before, c.rep, penaltyNS) }()
	c.rep.Rounds++
	seq := c.seq
	c.seq++
	pen := c.cfg.InflateNS
	if c.roll(c.cfg.StallRate) {
		c.rep.Injected.Stalls++
		pen += c.cfg.stallNS()
	}
	if !c.link {
		// Perfect wire: no fault class can touch the frame bytes, so the
		// encode/verify/parse round-trip is the identity and is elided.
		c.rep.CleanRounds++
		return events, false, pen
	}

	faulted := false
	attempts := 1 + c.cfg.retryBudget()
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.rep.Retries++
			pen += c.cfg.retryNS() * float64(uint64(1)<<(a-1))
		}
		// The frame never arrives: the receiver sees the sequence gap (or an
		// ack timeout) and requests a retransmission.
		if c.roll(c.cfg.DropRate) {
			c.rep.Injected.Drops++
			c.rep.Detected++
			faulted = true
			continue
		}
		c.frame = compress.AppendRoundFrame(c.frame[:0], seq, events, c.per)
		wire := c.frame
		corrupted := false
		if c.roll(c.cfg.CorruptRate) {
			c.corrupt = append(c.corrupt[:0], c.frame...)
			for k := c.cfg.corruptBits(); k > 0; k-- {
				bit := c.rng.IntN(len(c.corrupt) * 8)
				c.corrupt[bit>>3] ^= 1 << (uint(bit) & 7)
			}
			// Flips that cancel leave the wire intact: nothing was injected.
			if !bytes.Equal(c.corrupt, c.frame) {
				c.rep.Injected.Corruptions++
				corrupted = true
				wire = c.corrupt
			}
		}
		gotSeq, out, err := compress.DecodeRoundFrame(wire, c.per, c.out[:0])
		c.out = out
		if err != nil || gotSeq != seq {
			// CRC/format failure or a forged sequence number: detected,
			// retransmit if budget remains.
			c.rep.Detected++
			faulted = true
			continue
		}
		if corrupted {
			// The corruption forged a frame the CRC accepts: the decoder is
			// silently fed wrong syndromes — the failure mode the framing
			// exists to make negligible.
			c.rep.Undetected++
			c.rep.CorruptRounds++
			return out, false, pen
		}
		// Delivered intact. Post-delivery link faults the receiver absorbs:
		// a duplicate copy is discarded by its stale sequence number; an
		// out-of-order arrival sits one slot in the reorder buffer, reaching
		// the decoder in order but late.
		if c.roll(c.cfg.DuplicateRate) {
			c.rep.Injected.Duplicates++
			c.rep.Detected++
			faulted = true
		}
		if c.roll(c.cfg.ReorderRate) {
			c.rep.Injected.Reorders++
			c.rep.Detected++
			pen += DefaultReorderNS
			faulted = true
		}
		if faulted {
			c.rep.RecoveredRounds++
		} else {
			c.rep.CleanRounds++
		}
		return out, false, pen
	}
	// Retry budget exhausted: the round is erased. The decoder gets an
	// empty, flagged layer and the next window re-derives context.
	c.rep.ErasedRounds++
	return nil, true, pen
}
