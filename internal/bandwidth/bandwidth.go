// Package bandwidth implements the paper's first-order syndrome
// transmission model (§VI-A): an FTQC with L logical qubits encoded in
// distance-d surface codes must move 2d(d-1)·L syndrome bits from the
// quantum substrate to the decoders at the end of every syndrome
// measurement round. Spending a window of t nanoseconds on the transfer
// requires an aggregate bandwidth of 2d(d-1)·L / t bits per nanosecond —
// i.e. hundreds to thousands of Gbps for realistic systems (Fig. 13) —
// which Syndrome Compression divides by the achieved compression ratio.
package bandwidth

// BitsPerRound returns the number of syndrome bits produced per measurement
// round by l logical qubits of distance d: both ancilla types contribute
// d(d-1) bits per qubit.
func BitsPerRound(l, d int) int64 {
	return 2 * int64(d) * int64(d-1) * int64(l)
}

// RequiredGbps returns the aggregate bandwidth needed to transmit one
// round's syndrome data within a window of windowNS nanoseconds, in
// gigabits per second. (1 bit/ns = 1 Gbps.)
func RequiredGbps(l, d int, windowNS float64) float64 {
	if windowNS <= 0 {
		panic("bandwidth: window must be positive")
	}
	return float64(BitsPerRound(l, d)) / windowNS
}

// CompressedGbps returns the bandwidth requirement after applying a
// compression scheme with the given average compression ratio.
func CompressedGbps(l, d int, windowNS, ratio float64) float64 {
	if ratio <= 0 {
		panic("bandwidth: compression ratio must be positive")
	}
	return RequiredGbps(l, d, windowNS) / ratio
}
