package compress

// Round framing for the qubit->decoder link.
//
// The hybrid Compressor above answers "how many bits does a syndrome frame
// need"; this file supplies the packet layer a real link needs around that
// payload: a sequence number so the receiver can detect dropped, duplicated
// and reordered rounds, a payload in the smaller of two encodings (sparse
// event indices or a raw bitmap — the same best-of selection the hybrid
// scheme uses), and a CRC-32C over the whole frame so corruption on the
// wire is detected rather than decoded into garbage syndromes. Decoding is
// fully bounds-checked: arbitrary corrupt bytes must never panic, only fail
// verification (the chaos layer and the fuzz target both depend on it).
//
// Frame layout (little-endian):
//
//	magic  u8   frameMagic
//	seq    u32  round sequence number
//	mode   u8   payloadSparse | payloadBitmap
//	count  u16  event count (sparse mode only)
//	payload     count*u16 ascending indices, or ceil(per/8) bitmap bytes
//	crc    u32  CRC-32C of everything above

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/bits"
)

const frameMagic = 0xA5

const (
	payloadSparse = 0 // count + u16 index per event
	payloadBitmap = 1 // one bit per ancilla
)

// Frame decode failures. ErrFrameCRC means the integrity check itself
// failed; ErrFrameMalformed means the CRC passed (or the frame was too
// short to carry one) but the contents violate the format — both count as
// *detected* corruption.
var (
	ErrFrameCRC       = errors.New("compress: frame CRC mismatch")
	ErrFrameMalformed = errors.New("compress: malformed frame")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderBytes is magic+seq+mode; sparse adds the u16 count.
const frameHeaderBytes = 1 + 4 + 1

// RoundFrameBytes returns the encoded size of a round with n events over a
// per-ancilla range of per bits (the smaller of the two payload modes plus
// header and CRC).
func RoundFrameBytes(n, per int) int {
	sparse := 2 + 2*n
	bitmap := (per + 7) / 8
	if bitmap < sparse {
		return frameHeaderBytes + bitmap + 4
	}
	return frameHeaderBytes + sparse + 4
}

// AppendRoundFrame appends one framed syndrome round to dst and returns the
// extended slice. events must be ascending ancilla indices in [0, per); the
// caller keeps ownership of the slice. The steady-state path allocates
// nothing once dst has reached frame capacity.
func AppendRoundFrame(dst []byte, seq uint32, events []int32, per int) []byte {
	start := len(dst)
	dst = append(dst, frameMagic)
	dst = binary.LittleEndian.AppendUint32(dst, seq)
	dst = AppendRoundPayload(dst, events, per)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// DecodeRoundFrame parses one frame produced by AppendRoundFrame. The
// decoded events are appended to out[:0] (pass a reused slice for a
// zero-allocation steady state) and returned in ascending order. per must
// match the encoder's. Any corruption — truncation, a CRC mismatch, an
// out-of-range index, a non-ascending index list, trailing bytes — yields
// an error and never a panic.
func DecodeRoundFrame(frame []byte, per int, out []int32) (seq uint32, events []int32, err error) {
	out = out[:0]
	if len(frame) < frameHeaderBytes+4 {
		return 0, out, ErrFrameMalformed
	}
	body, tail := frame[:len(frame)-4], frame[len(frame)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return 0, out, ErrFrameCRC
	}
	if body[0] != frameMagic {
		return 0, out, ErrFrameMalformed
	}
	seq = binary.LittleEndian.Uint32(body[1:5])
	events, err = DecodeRoundPayload(body[5:], per, out)
	return seq, events, err
}

// AppendRoundPayload appends the §VII best-of encoding of one round's
// events — a mode byte, then either a u16 count and one u16 index per
// event (payloadSparse) or a ceil(per/8)-byte bitmap (payloadBitmap),
// whichever is smaller, sparse on a tie — and returns the extended slice.
// It is the payload of a round frame and, unsealed, of a fleet round
// entry, whose envelope CRC covers it. events must be ascending ancilla
// indices in [0, per).
func AppendRoundPayload(dst []byte, events []int32, per int) []byte {
	bitmapBytes := (per + 7) / 8
	if bitmapBytes < 2+2*len(events) {
		dst = append(dst, payloadBitmap)
		plo := len(dst)
		for i := 0; i < bitmapBytes; i++ {
			dst = append(dst, 0)
		}
		for _, x := range events {
			dst[plo+int(x>>3)] |= 1 << (uint(x) & 7)
		}
		return dst
	}
	dst = append(dst, payloadSparse)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(events)))
	for _, x := range events {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(x))
	}
	return dst
}

// DecodeRoundPayload parses a whole payload produced by AppendRoundPayload,
// appending the events to out[:0] in ascending order. Only the encoder's
// own choice decodes: an out-of-range or non-ascending index, a length
// that does not match the mode, trailing bytes, or the mode
// AppendRoundPayload would not have picked for that many events is
// ErrFrameMalformed. So a payload that decodes re-encodes to the same
// bytes.
func DecodeRoundPayload(p []byte, per int, out []int32) ([]int32, error) {
	out = out[:0]
	if len(p) < 1 {
		return out, ErrFrameMalformed
	}
	mode, payload := p[0], p[1:]
	bitmapBytes := (per + 7) / 8
	switch mode {
	case payloadSparse:
		if len(payload) < 2 {
			return out, ErrFrameMalformed
		}
		n := int(binary.LittleEndian.Uint16(payload))
		payload = payload[2:]
		if len(payload) != 2*n || bitmapBytes < 2+2*n {
			return out, ErrFrameMalformed
		}
		prev := int32(-1)
		for i := 0; i < n; i++ {
			x := int32(binary.LittleEndian.Uint16(payload[2*i:]))
			if x <= prev || int(x) >= per {
				return out, ErrFrameMalformed
			}
			out = append(out, x)
			prev = x
		}
	case payloadBitmap:
		if len(payload) != bitmapBytes {
			return out, ErrFrameMalformed
		}
		for i, b := range payload {
			base := int32(i << 3)
			for b != 0 {
				bit := int32(bits.TrailingZeros8(b))
				x := base + bit
				if int(x) >= per {
					return out, ErrFrameMalformed
				}
				out = append(out, x)
				b &= b - 1
			}
		}
		if bitmapBytes >= 2+2*len(out) {
			return out, ErrFrameMalformed
		}
	default:
		return out, ErrFrameMalformed
	}
	return out, nil
}
