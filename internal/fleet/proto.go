// Package fleet turns the in-process stream engine into a horizontally
// sharded decode service: a front-end router assigns logical-qubit streams
// to N decode-shard processes over TCP or Unix sockets, speaking a
// versioned wire protocol that reuses the CRC-32C round framing and §VII
// syndrome compression of internal/compress for the per-round payload.
//
// The robustness core is crash recovery with byte-identical decoding:
// shards checkpoint each stream's decoder (stream.Snapshot) every
// CheckpointEvery rounds, the router journals every post-chaos round since
// the last checkpoint, and a shard crash — detected by read/write errors or
// heartbeat loss — triggers bounded-backoff reconnect and, past the retry
// budget, deterministic failover to the surviving shards. Either way the
// replacement decoder restores the checkpoint, replays the journal, and
// continues the stream as if nothing happened; duplicate corrections
// regenerated during replay are deduplicated by per-stream sequence number,
// so the corrections the router delivers are bit-identical to an
// uninterrupted in-process stream.Engine run under the same seeds
// (test-enforced).
//
// Chaos (internal/faults) runs router-side, *before* the socket: the wire
// carries post-fault syndromes. That keeps decoding deterministic under
// real transport timing, keeps the fault ledger exact across shard death
// (the channels live in the router, which survives), and guarantees a
// replayed round re-uses the original fault outcome instead of rolling new
// faults.
package fleet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"afs/internal/compress"
	"afs/internal/lattice"
	"afs/internal/stream"
)

// ProtoVersion is the fleet wire-protocol version. A peer speaking a
// different version is rejected at decode time — version skew must fail
// loudly, never mis-decode.
const ProtoVersion = 1

// Message types. Router→shard: open, round, flush, ping. Shard→router:
// openOK/refuse, corr, checkpoint, flushOK, pong.
const (
	msgOpen       = 1  // open or adopt a stream (JSON openPayload)
	msgOpenOK     = 2  // stream admitted
	msgRefuse     = 3  // admission refused (payload = reason)
	msgRound      = 4  // one syndrome round (roundPayload)
	msgCorr       = 5  // one committed correction (corrPayload)
	msgCheckpoint = 6  // periodic decoder snapshot (ckptPayload)
	msgFlush      = 7  // flush every stream on the shard
	msgFlushOK    = 8  // per-stream ledgers (JSON map[uint32]faults.Report)
	msgPing       = 9  // heartbeat probe
	msgPong       = 10 // heartbeat reply
	msgClose      = 11 // drop a stream without flushing (it moved elsewhere)
)

// Envelope layout (little-endian):
//
//	length  u32  bytes that follow, version through crc
//	version u8   ProtoVersion
//	type    u8   message type
//	stream  u32  stream id (0 where not applicable)
//	payload      type-specific
//	crc     u32  CRC-32C of version..payload
//
// The envelope CRC covers the header the round-frame CRC cannot see, so a
// bit flip in the type or stream field is detected instead of routing a
// round to the wrong decoder.
const (
	envHeadBytes = 1 + 1 + 4 // version + type + stream
	envTailBytes = 4         // crc

	// maxEnvelope bounds a single message. The largest legitimate payload
	// is a checkpoint snapshot (JSON of a near-full window at high
	// distance, tens of KiB); anything past this is garbage framing, and
	// bounding it keeps a corrupted length field from provoking a huge
	// allocation.
	maxEnvelope = 1 << 22
)

var envCRC = crc32.MakeTable(crc32.Castagnoli)

// Protocol decode failures. Like compress's frame errors, these are
// *detected* corruption: arbitrary bytes must never panic or mis-decode.
var (
	ErrEnvelope = errors.New("fleet: malformed envelope")
	ErrVersion  = errors.New("fleet: protocol version mismatch")
	ErrCRC      = errors.New("fleet: envelope CRC mismatch")
)

// envelope is one decoded wire message. Payload aliases the decode buffer
// and is only valid until the next read.
type envelope struct {
	typ     uint8
	stream  uint32
	payload []byte
}

// appendEnvelope appends one framed message to dst and returns the extended
// slice. The steady-state path allocates nothing once dst has capacity.
func appendEnvelope(dst []byte, typ uint8, streamID uint32, payload []byte) []byte {
	n := envHeadBytes + len(payload) + envTailBytes
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	start := len(dst)
	dst = append(dst, ProtoVersion, typ)
	dst = binary.LittleEndian.AppendUint32(dst, streamID)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], envCRC)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// decodeEnvelope parses the post-length body of one message (version
// through crc). Any corruption — truncation, a version skew, a CRC
// mismatch — yields an error and never a panic.
func decodeEnvelope(body []byte) (envelope, error) {
	if len(body) < envHeadBytes+envTailBytes {
		return envelope{}, ErrEnvelope
	}
	head, tail := body[:len(body)-envTailBytes], body[len(body)-envTailBytes:]
	if crc32.Checksum(head, envCRC) != binary.LittleEndian.Uint32(tail) {
		return envelope{}, ErrCRC
	}
	if head[0] != ProtoVersion {
		return envelope{}, fmt.Errorf("%w: got %d, want %d", ErrVersion, head[0], ProtoVersion)
	}
	return envelope{
		typ:     head[1],
		stream:  binary.LittleEndian.Uint32(head[2:6]),
		payload: head[envHeadBytes:],
	}, nil
}

// readEnvelope reads one length-prefixed message from r, reusing *buf
// across calls. io.EOF is returned untouched on a clean close between
// messages so callers can distinguish shutdown from mid-message truncation.
func readEnvelope(r io.Reader, buf *[]byte) (envelope, error) {
	var lb [4]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return envelope{}, err
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if n < envHeadBytes+envTailBytes || n > maxEnvelope {
		return envelope{}, ErrEnvelope
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return envelope{}, err
	}
	return decodeEnvelope(body)
}

// roundPayload carries one syndrome round:
//
//	penalty u64  IEEE-754 bits of the injected service-time penalty (ns)
//	flags   u8   bit 0: round erased (an explicit seq follows, no frame)
//	seq     u32  round sequence number (erased rounds only)
//	frame        compress round frame (non-erased rounds; carries its own seq)
//
// The frame reuses the §VII hybrid encoding (sparse indices or bitmap,
// whichever is smaller) plus its own CRC-32C — the same bytes the
// qubit→decoder link of the paper would carry, now inside a routed
// envelope. Erased rounds have no frame to carry the sequence number, so
// they carry it explicitly: the shard's end-to-end ordering check must
// cover every round, or a replayed erased round would desynchronize a
// recovered stream undetected.
const roundFlagErased = 1

func appendRoundPayload(dst []byte, seq uint32, events []int32, erased bool, penaltyNS float64, per int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(penaltyNS))
	if erased {
		dst = append(dst, roundFlagErased)
		return binary.LittleEndian.AppendUint32(dst, seq)
	}
	dst = append(dst, 0)
	return compress.AppendRoundFrame(dst, seq, events, per)
}

// decodeRoundPayload parses a roundPayload. events aliases out's backing
// array, like compress.DecodeRoundFrame.
func decodeRoundPayload(p []byte, per int, out []int32) (seq uint32, events []int32, erased bool, penaltyNS float64, err error) {
	if len(p) < 9 {
		return 0, out[:0], false, 0, ErrEnvelope
	}
	penaltyNS = math.Float64frombits(binary.LittleEndian.Uint64(p))
	if math.IsNaN(penaltyNS) || math.IsInf(penaltyNS, 0) || penaltyNS < 0 {
		return 0, out[:0], false, 0, ErrEnvelope
	}
	flags := p[8]
	if flags&^roundFlagErased != 0 {
		return 0, out[:0], false, 0, ErrEnvelope
	}
	if flags&roundFlagErased != 0 {
		if len(p) != 13 {
			return 0, out[:0], false, 0, ErrEnvelope
		}
		return binary.LittleEndian.Uint32(p[9:]), out[:0], true, penaltyNS, nil
	}
	seq, events, err = compress.DecodeRoundFrame(p[9:], per, out)
	return seq, events, false, penaltyNS, err
}

// corrPayload carries one committed correction:
//
//	seq     u64  per-stream correction sequence number, 1-based
//	kind    u8   lattice.EdgeKind
//	qubit   i32
//	ancilla i32
//	round   i64
//
// The sequence number is the replay-dedup key: a restored shard replaying
// journaled rounds regenerates corrections the router already delivered,
// byte-identical and with the same seq, and the router drops seq <= the
// last delivered.
const corrPayloadBytes = 8 + 1 + 4 + 4 + 8

func appendCorrPayload(dst []byte, seq uint64, c stream.Correction) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, uint8(c.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Qubit))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Ancilla))
	return binary.LittleEndian.AppendUint64(dst, uint64(int64(c.Round)))
}

func decodeCorrPayload(p []byte) (seq uint64, c stream.Correction, err error) {
	if len(p) != corrPayloadBytes {
		return 0, c, ErrEnvelope
	}
	seq = binary.LittleEndian.Uint64(p)
	if p[8] > uint8(lattice.Temporal) {
		return 0, c, ErrEnvelope
	}
	c.Kind = lattice.EdgeKind(p[8])
	c.Qubit = int32(binary.LittleEndian.Uint32(p[9:]))
	c.Ancilla = int32(binary.LittleEndian.Uint32(p[13:]))
	c.Round = int(int64(binary.LittleEndian.Uint64(p[17:])))
	return seq, c, nil
}

// ckptPayload carries one checkpoint:
//
//	rounds  u64  rounds the stream had ingested when the snapshot was taken
//	corrSeq u64  corrections the stream had emitted by then
//	snap         JSON of stream.Snapshot
const ckptHeadBytes = 16

func appendCkptPayload(dst []byte, rounds, corrSeq uint64, snapJSON []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, rounds)
	dst = binary.LittleEndian.AppendUint64(dst, corrSeq)
	return append(dst, snapJSON...)
}

func decodeCkptPayload(p []byte) (rounds, corrSeq uint64, snapJSON []byte, err error) {
	if len(p) < ckptHeadBytes {
		return 0, 0, nil, ErrEnvelope
	}
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]), p[ckptHeadBytes:], nil
}

// openPayload is the JSON body of msgOpen: the stream's static decoder
// configuration plus, when adopting a stream across a crash, the checkpoint
// to restore and the counters to resume from. A nil Snapshot opens a fresh
// stream at round 0.
type openPayload struct {
	Distance   int     `json:"distance"`
	Window     int     `json:"window"`
	Commit     int     `json:"commit"`
	DeadlineNS float64 `json:"deadline_ns,omitempty"`
	QueueCap   int     `json:"queue_cap,omitempty"`

	// Rounds and CorrSeq are the checkpoint's counters; the shard resumes
	// its round count and correction sequence from them so replayed rounds
	// regenerate the original sequence numbers. Snapshot holds the
	// checkpoint's stream.Snapshot verbatim (the router stores and forwards
	// the shard-encoded JSON without re-marshaling it).
	Rounds   uint64          `json:"rounds,omitempty"`
	CorrSeq  uint64          `json:"corr_seq,omitempty"`
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}
