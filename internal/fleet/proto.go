// Package fleet turns the in-process stream engine into a horizontally
// sharded decode service: a front-end router assigns logical-qubit streams
// to N decode-shard processes over TCP or Unix sockets, speaking a
// versioned wire protocol of CRC-32C-sealed envelopes. A round travels as
// the §VII best-of payload of internal/compress (sparse indices or a
// bitmap), sealed once by its envelope: the per-round frame the chaos link
// (internal/faults) models around that payload is not on the fleet's wire.
// The router keeps at most roundWindow round envelopes unacknowledged per
// shard, so a round waits behind at most a few others on the way to its
// decoder.
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
// loudly, never mis-decode. Version 2 batched the data path by shard-round:
// one msgRounds envelope carries a round of every stream a shard owns, one
// msgCorrs envelope returns the corrections it produced, and opens and
// checkpoints carry binary stream snapshots. Version 3 acknowledges every
// msgRounds envelope with a msgRoundsOK, which bounds the rounds in flight,
// and carries each round unframed inside its entry.
const ProtoVersion = 3

// Message types. Router→shard: open, rounds, flush, ping, close.
// Shard→router: openOK/refuse, corrs, checkpoint, flushOK, pong, roundsOK.
const (
	msgOpen       = 1  // open or adopt a stream (openPayload)
	msgOpenOK     = 2  // stream admitted
	msgRefuse     = 3  // admission refused (payload = reason)
	msgRounds     = 4  // one round for each of several streams (roundsPayload)
	msgCorrs      = 5  // committed corrections (corrsPayload)
	msgCheckpoint = 6  // periodic decoder snapshot (ckptPayload)
	msgFlush      = 7  // flush every stream on the shard
	msgFlushOK    = 8  // per-stream ledgers (JSON map[uint32]faults.Report)
	msgPing       = 9  // heartbeat probe
	msgPong       = 10 // heartbeat reply
	msgClose      = 11 // drop a stream without flushing (it moved elsewhere)
	msgRoundsOK   = 12 // one msgRounds envelope fully handled (no payload)
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
// The envelope CRC is the only seal on the fleet's wire: it covers the
// header, so a bit flip in the type or stream field is detected instead of
// routing a round to the wrong decoder, and every round entry inside.
const (
	envHeadBytes = 1 + 1 + 4 // version + type + stream
	envTailBytes = 4         // crc

	// maxEnvelope bounds a single message; anything past it is garbage
	// framing, and bounding it keeps a corrupted length field from
	// provoking a huge allocation. Senders split round and correction
	// batches at maxBatch, far below it; the largest other payload is a
	// checkpoint snapshot (a near-full window at high distance, a few KiB).
	maxEnvelope = 1 << 22

	// maxBatch is the payload size at which a msgRounds or msgCorrs batch
	// is closed and a new envelope started.
	maxBatch = 1 << 18
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
// across calls for the length prefix and the body alike (a stack array
// would escape through io.ReadFull's interface argument and cost a heap
// allocation per message). io.EOF is returned untouched on a clean close
// between messages so callers can distinguish shutdown from mid-message
// truncation.
func readEnvelope(r io.Reader, buf *[]byte) (envelope, error) {
	if cap(*buf) < 4 {
		*buf = make([]byte, 4, 512)
	}
	lb := (*buf)[:4]
	if _, err := io.ReadFull(r, lb); err != nil {
		return envelope{}, err
	}
	n := binary.LittleEndian.Uint32(lb)
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

// roundsPayload is a sequence of entries, one stream's round each:
//
//	stream  u32  stream id
//	length  u32  bytes of the roundPayload that follows
//	round        roundPayload
//
// The router sends each shard one msgRounds per round of RunRounds — the
// same round-major group stream.Engine lane-batches — and a replay packs
// one stream's journal into consecutive entries. A stream's entries are
// in round order; the shard processes entries in order and answers the
// envelope with the corrections they produced as one msgCorrs (none if
// there were none, more than one past maxBatch), then the checkpoints the
// envelope made due, then one msgRoundsOK.
const roundsEntryHead = 4 + 4

// appendRoundsEntry appends one entry to a roundsPayload.
func appendRoundsEntry(dst []byte, id, seq uint32, events []int32, erased bool, penaltyNS float64, per int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, id)
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = appendRoundPayload(dst, seq, events, erased, penaltyNS, per)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// nextRoundsEntry splits the first entry off a non-empty roundsPayload. A
// truncated head or a length running past the payload is an error.
func nextRoundsEntry(p []byte) (id uint32, round, rest []byte, err error) {
	if len(p) < roundsEntryHead {
		return 0, nil, nil, ErrEnvelope
	}
	n := binary.LittleEndian.Uint32(p[4:])
	if uint64(n) > uint64(len(p)-roundsEntryHead) {
		return 0, nil, nil, ErrEnvelope
	}
	end := roundsEntryHead + int(n)
	return binary.LittleEndian.Uint32(p), p[roundsEntryHead:end], p[end:], nil
}

// roundPayload carries one syndrome round:
//
//	seq     u32  round sequence number
//	flags   u8   bit 0: round erased (no events follow);
//	             bit 1: a penalty follows
//	penalty u64  IEEE-754 bits of the injected service-time penalty (ns),
//	             present only when it is nonzero
//	events       compress.AppendRoundPayload encoding (non-erased rounds)
//
// The events are the §VII best-of encoding — sparse indices or a bitmap,
// whichever is smaller — without the round frame's magic byte, frame seq
// and CRC-32C: the envelope CRC already seals these bytes, so a round is
// sealed once. Every round, erased or not, carries its seq: the shard's
// end-to-end ordering check must cover every round, or a replayed erased
// round would desynchronize a recovered stream undetected. Most rounds
// carry no penalty, so it costs eight bytes only where chaos injected one.
const (
	roundFlagErased  = 1
	roundFlagPenalty = 2
)

func appendRoundPayload(dst []byte, seq uint32, events []int32, erased bool, penaltyNS float64, per int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, seq)
	var flags uint8
	if erased {
		flags |= roundFlagErased
	}
	if penaltyNS != 0 {
		flags |= roundFlagPenalty
	}
	dst = append(dst, flags)
	if penaltyNS != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(penaltyNS))
	}
	if erased {
		return dst
	}
	return compress.AppendRoundPayload(dst, events, per)
}

// decodeRoundPayload parses a roundPayload. events aliases out's backing
// array, like compress.DecodeRoundPayload. A penalty that is present but
// zero, negative, NaN or infinite is corruption, not data, and so is an
// erased round with events.
func decodeRoundPayload(p []byte, per int, out []int32) (seq uint32, events []int32, erased bool, penaltyNS float64, err error) {
	if len(p) < 5 {
		return 0, out[:0], false, 0, ErrEnvelope
	}
	seq, flags, p := binary.LittleEndian.Uint32(p), p[4], p[5:]
	if flags&^(roundFlagErased|roundFlagPenalty) != 0 {
		return 0, out[:0], false, 0, ErrEnvelope
	}
	if flags&roundFlagPenalty != 0 {
		if len(p) < 8 {
			return 0, out[:0], false, 0, ErrEnvelope
		}
		penaltyNS, p = math.Float64frombits(binary.LittleEndian.Uint64(p)), p[8:]
		if !(penaltyNS > 0) || math.IsInf(penaltyNS, 0) {
			return 0, out[:0], false, 0, ErrEnvelope
		}
	}
	if flags&roundFlagErased != 0 {
		if len(p) != 0 {
			return 0, out[:0], false, 0, ErrEnvelope
		}
		return seq, out[:0], true, penaltyNS, nil
	}
	events, err = compress.DecodeRoundPayload(p, per, out)
	return seq, events, false, penaltyNS, err
}

// corrsPayload is a sequence of fixed-size correction entries:
//
//	stream  u32  stream id
//	seq     u64  per-stream correction sequence number, 1-based
//	kind    u8   lattice.EdgeKind
//	qubit   i32
//	ancilla i32
//	round   i64
//
// The sequence number is the replay-dedup key: a restored shard replaying
// journaled rounds regenerates corrections the router already delivered,
// byte-identical and with the same seq, and the router drops seq <= the
// last delivered. A stream's entries are in seq order.
const corrEntryBytes = 4 + 8 + 1 + 4 + 4 + 8

func appendCorrEntry(dst []byte, id uint32, seq uint64, c stream.Correction) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, uint8(c.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Qubit))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Ancilla))
	return binary.LittleEndian.AppendUint64(dst, uint64(int64(c.Round)))
}

// decodeCorrEntry parses the entry at the head of p, which must hold at
// least corrEntryBytes.
func decodeCorrEntry(p []byte) (id uint32, seq uint64, c stream.Correction, err error) {
	if p[12] > uint8(lattice.Temporal) {
		return 0, 0, c, ErrEnvelope
	}
	id = binary.LittleEndian.Uint32(p)
	seq = binary.LittleEndian.Uint64(p[4:])
	c.Kind = lattice.EdgeKind(p[12])
	c.Qubit = int32(binary.LittleEndian.Uint32(p[13:]))
	c.Ancilla = int32(binary.LittleEndian.Uint32(p[17:]))
	c.Round = int(int64(binary.LittleEndian.Uint64(p[21:])))
	return id, seq, c, nil
}

// ckptPayload carries one checkpoint:
//
//	rounds  u64  rounds the stream had ingested when the snapshot was taken
//	corrSeq u64  corrections the stream had emitted by then
//	snap         stream.AppendSnapshot encoding
const ckptHeadBytes = 16

func appendCkptPayload(dst []byte, rounds, corrSeq uint64, snap []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, rounds)
	dst = binary.LittleEndian.AppendUint64(dst, corrSeq)
	return append(dst, snap...)
}

func decodeCkptPayload(p []byte) (rounds, corrSeq uint64, snap []byte, err error) {
	if len(p) < ckptHeadBytes {
		return 0, 0, nil, ErrEnvelope
	}
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]), p[ckptHeadBytes:], nil
}

// openPayload is the body of msgOpen: the stream's static decoder
// configuration plus, when adopting a stream across a crash, the checkpoint
// to restore and the counters to resume from.
//
//	distance   u32
//	window     u32
//	commit     u32
//	queueCap   u32
//	deadlineNS f64
//	rounds     u64  the checkpoint's round count (0 for a fresh stream)
//	corrSeq    u64  the checkpoint's correction count
//	snapshot        stream.AppendSnapshot encoding; empty opens a fresh
//	                stream at round 0
//
// The shard resumes its round count and correction sequence from the
// counters, so replayed rounds regenerate the original sequence numbers.
// The router forwards the shard-encoded snapshot bytes verbatim.
type openPayload struct {
	Distance, Window, Commit, QueueCap int
	DeadlineNS                         float64
	Rounds, CorrSeq                    uint64
	Snapshot                           []byte
}

const openHeadBytes = 4*4 + 8 + 8 + 8

func appendOpenPayload(dst []byte, op openPayload) []byte {
	for _, x := range [...]int{op.Distance, op.Window, op.Commit, op.QueueCap} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(op.DeadlineNS))
	dst = binary.LittleEndian.AppendUint64(dst, op.Rounds)
	dst = binary.LittleEndian.AppendUint64(dst, op.CorrSeq)
	return append(dst, op.Snapshot...)
}

// decodeOpenPayload parses an openPayload; Snapshot aliases p. Decoder
// construction validates the shape and stream.DecodeSnapshot the snapshot.
func decodeOpenPayload(p []byte) (op openPayload, err error) {
	if len(p) < openHeadBytes {
		return op, ErrEnvelope
	}
	op.Distance = int(binary.LittleEndian.Uint32(p))
	op.Window = int(binary.LittleEndian.Uint32(p[4:]))
	op.Commit = int(binary.LittleEndian.Uint32(p[8:]))
	op.QueueCap = int(binary.LittleEndian.Uint32(p[12:]))
	op.DeadlineNS = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
	op.Rounds = binary.LittleEndian.Uint64(p[24:])
	op.CorrSeq = binary.LittleEndian.Uint64(p[32:])
	op.Snapshot = p[openHeadBytes:]
	return op, nil
}
