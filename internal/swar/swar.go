// Package swar provides the SIMD-within-a-register primitive behind the
// bit-plane lane classifiers: 64 trials or stream windows travel together,
// one bit per lane, through uint64 "plane" words. A plane array indexed by
// vertex holds, in word i, bit t = "lane t has the property at index i" —
// the transpose of the structure-of-arrays batch layout, and the software
// analogue of the bit-exact parallel datapaths FPGA Union-Find decoders
// use in hardware.
//
// The package is deliberately tiny and decoder-agnostic: a bit-sliced
// saturating counter for per-lane weight classification, pure
// word-parallel integer arithmetic with zero allocation.
package swar

// LaneCounts is a per-lane saturating counter, bit-sliced across 64 lanes:
// lane t's count is the two-bit value C1[t]C0[t], with Sat[t] latching once
// the count has ever reached 4 (the carry out of the two-bit adder). Counts
// 0, 1, and 2 are exact; everything >= 3 is distinguishable as "at least
// 3", which is all weight-class triage needs. Adding a plane word counts
// one unit into every lane whose bit is set — so streaming a trial group's
// defect planes through Add classifies all 64 trials' syndrome weights in
// a handful of word ops per vertex.
type LaneCounts struct {
	C0, C1 uint64 // bit-sliced two-bit counter, lane-parallel
	Sat    uint64 // sticky overflow: lane count reached 4 at some point
}

// Add increments the counter of every lane whose bit is set in w.
func (c *LaneCounts) Add(w uint64) {
	carry := c.C0 & w
	c.C0 ^= w
	c.Sat |= c.C1 & carry
	c.C1 ^= carry
}

// Exactly0 returns the mask of lanes whose count is exactly 0.
func (c *LaneCounts) Exactly0() uint64 { return ^(c.C0 | c.C1 | c.Sat) }

// Exactly1 returns the mask of lanes whose count is exactly 1.
func (c *LaneCounts) Exactly1() uint64 { return c.C0 &^ c.C1 &^ c.Sat }

// Exactly2 returns the mask of lanes whose count is exactly 2.
func (c *LaneCounts) Exactly2() uint64 { return c.C1 &^ c.C0 &^ c.Sat }

// AtLeast3 returns the mask of lanes whose count is 3 or more.
func (c *LaneCounts) AtLeast3() uint64 { return c.Sat | (c.C0 & c.C1) }
