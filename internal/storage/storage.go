// Package storage computes the memory footprint of the AFS decoder
// hardware, reproducing the paper's Table I (per-logical-qubit memory for
// d=11 and d=25), Table II (a 1000-logical-qubit FTQC with and without the
// Conjoined-Decoder Architecture), and Figure 9 (total decoder memory
// versus the number of logical qubits).
//
// Sizing model (validated bit-for-bit against Table I):
//
//   - The decoding graph provisioned in hardware has V = d^2(d-1) vertices
//     (d detector layers of d(d-1) ancillas) and E = d(d^2+(d-1)^2) spatial
//     edges plus d^2(d-1) temporal edges — one temporal link per vertex,
//     including the decoding-window boundary links needed for continuous
//     operation.
//   - The Spanning Tree Memory stores 1 bit per vertex and 2 bits per edge
//     (clusters grow by half edges): STM = V + 2E bits.
//   - The Root Table stores one vertex index per vertex:
//     V * ceil(log2 V) bits.
//   - The Size Table stores one cluster size per vertex; sizes reach V, so
//     entries are one bit wider: V * (ceil(log2 V) + 1) bits.
//   - The DFS Engine stacks hold edge records of ceil(log2 E) + 4 bits
//     (edge index, 2 direction bits, 2 syndrome bits — paper §IV-C); the
//     aggregate stack capacity is provisioned for the p = 1e-3 workload and
//     scales with the expected total cluster volume, ~ d^3. The per-qubit
//     capacity coefficient (StackAlphaQubit) is fitted to Table I and the
//     deeper system-level provisioning (StackAlphaSystem) to Table II; see
//     EXPERIMENTS.md for the (small) residuals and the paper-internal
//     inconsistency between the two tables' stack rows.
//   - Every logical qubit needs two decoders, one for X and one for Z
//     errors, so per-qubit figures are twice the single-decoder figures.
package storage

import "math"

// Stack-capacity coefficients: capacity = ceil(alpha * d^3) entries per
// decoder.
const (
	// StackAlphaQubit reproduces Table I's per-qubit stack rows.
	StackAlphaQubit = 0.017
	// StackAlphaSystem reproduces Table II's system-level stack row, which
	// provisions deeper stacks per qubit than Table I.
	StackAlphaSystem = 0.265
)

// CDA sharing factors from the paper (§V-C, Table II): for L logical qubits
// the CDA uses L Gr-Gen units (each serving its qubit's X and Z syndromes),
// L/2 DFS Engines and L/2 CORR Engines, and pairs of Gr-Gen units share
// root/size tables.
const (
	CDAStmFactor   = 2
	CDARootFactor  = 4
	CDASizeFactor  = 4
	CDAStackFactor = 4
)

// GraphDims returns the provisioned decoding-graph dimensions for
// distance d.
func GraphDims(d int) (v, e int64) {
	dd := int64(d)
	v = dd * dd * (dd - 1)
	e = dd*(dd*dd+(dd-1)*(dd-1)) + dd*dd*(dd-1)
	return v, e
}

// ceilLog2 returns ceil(log2 n) for n >= 1.
func ceilLog2(n int64) int {
	b := 0
	for v := int64(1); v < n; v <<= 1 {
		b++
	}
	return b
}

// QubitMemory is the decoder memory of one logical qubit (both X and Z
// decoders), in bits, by component.
type QubitMemory struct {
	Distance  int
	STMBits   int64
	RootBits  int64
	SizeBits  int64
	StackBits int64
}

// ForQubit sizes the decoder pair of one distance-d logical qubit using the
// per-qubit (Table I) stack provisioning.
func ForQubit(d int) QubitMemory { return forQubit(d, StackAlphaQubit) }

// ForQubitSystem sizes one logical qubit with the deeper system-level
// (Table II) stack provisioning.
func ForQubitSystem(d int) QubitMemory { return forQubit(d, StackAlphaSystem) }

func forQubit(d int, stackAlpha float64) QubitMemory {
	v, e := GraphDims(d)
	rootW := int64(ceilLog2(v))
	stackEntryBits := int64(ceilLog2(e) + 4)
	stackEntries := int64(math.Ceil(stackAlpha * float64(d) * float64(d) * float64(d)))
	return QubitMemory{
		Distance:  d,
		STMBits:   2 * (v + 2*e),
		RootBits:  2 * v * rootW,
		SizeBits:  2 * v * (rootW + 1),
		StackBits: 2 * stackEntries * stackEntryBits,
	}
}

// TotalBits returns the per-qubit total.
func (q QubitMemory) TotalBits() int64 {
	return q.STMBits + q.RootBits + q.SizeBits + q.StackBits
}

// KB converts bits to kibibytes.
func KB(bits int64) float64 { return float64(bits) / 8 / 1024 }

// MB converts bits to mebibytes.
func MB(bits int64) float64 { return float64(bits) / 8 / 1024 / 1024 }

// SystemMemory is the decoder memory of an FTQC with L logical qubits,
// in bits, by component.
type SystemMemory struct {
	LogicalQubits int
	Distance      int
	CDA           bool
	STMBits       int64
	RootBits      int64
	SizeBits      int64
	StackBits     int64
}

// ForSystem sizes an FTQC with L distance-d logical qubits, with dedicated
// decoders (cda=false) or the Conjoined-Decoder Architecture (cda=true).
func ForSystem(l, d int, cda bool) SystemMemory {
	q := ForQubitSystem(d)
	s := SystemMemory{
		LogicalQubits: l,
		Distance:      d,
		CDA:           cda,
		STMBits:       int64(l) * q.STMBits,
		RootBits:      int64(l) * q.RootBits,
		SizeBits:      int64(l) * q.SizeBits,
		StackBits:     int64(l) * q.StackBits,
	}
	if cda {
		s.STMBits /= CDAStmFactor
		s.RootBits /= CDARootFactor
		s.SizeBits /= CDASizeFactor
		s.StackBits /= CDAStackFactor
	}
	return s
}

// TotalBits returns the system total.
func (s SystemMemory) TotalBits() int64 {
	return s.STMBits + s.RootBits + s.SizeBits + s.StackBits
}

// Reduction returns how much smaller a CDA system is than the dedicated
// design with the same parameters.
func Reduction(l, d int) float64 {
	ded := ForSystem(l, d, false).TotalBits()
	cda := ForSystem(l, d, true).TotalBits()
	return float64(ded) / float64(cda)
}
