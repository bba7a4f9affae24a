package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"testing"

	"afs/internal/faults"
	"afs/internal/lattice"
	"afs/internal/stream"
)

// testSnapshot is a small valid binary snapshot for payload tests.
func testSnapshot() []byte {
	return stream.AppendSnapshot(nil, stream.Snapshot{
		Distance: 5, Window: 5, Commit: 2, Base: 32,
		Layers: [][]int32{{1, 4}, nil}, Erased: []bool{false, true},
		Ledger: faults.Report{Windows: 28},
	})
}

// testRounds is a msgRounds payload of three entries: two streams, one of
// them with two consecutive rounds (the replay shape), one round erased.
func testRounds() []byte {
	p := appendRoundsEntry(nil, 1234, 3, []int32{0, 5, 19}, false, 1.5, 20)
	p = appendRoundsEntry(p, 7, 40, nil, true, 800, 20)
	return appendRoundsEntry(p, 7, 41, []int32{2}, false, 0, 20)
}

// testCorrs is a msgCorrs payload of two entries.
func testCorrs() []byte {
	p := appendCorrEntry(nil, 42, 9, stream.Correction{Kind: lattice.Spatial, Qubit: 3, Ancilla: -1, Round: 17})
	return appendCorrEntry(p, 7, 1, stream.Correction{Kind: lattice.Temporal, Qubit: -1, Ancilla: 11, Round: 2})
}

func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []struct {
		typ     uint8
		stream  uint32
		payload []byte
	}{
		{msgOpen, 0, appendOpenPayload(nil, openPayload{Distance: 5, Window: 5, Commit: 2, Rounds: 64, CorrSeq: 3, Snapshot: testSnapshot()})},
		{msgOpenOK, 7, nil},
		{msgRefuse, 9, []byte("admission cap reached")},
		{msgRounds, 0, testRounds()},
		{msgCorrs, 0, testCorrs()},
		{msgCheckpoint, 42, appendCkptPayload(nil, 64, 12, testSnapshot())},
		{msgFlush, 0, nil},
		{msgFlushOK, 1, []byte(`{}`)},
		{msgClose, 3, nil},
		{msgRoundsOK, 0, nil},
	}
	var wire []byte
	for _, c := range cases {
		wire = appendEnvelope(wire, c.typ, c.stream, c.payload)
	}
	br := bytes.NewReader(wire)
	var buf []byte
	for i, c := range cases {
		env, err := readEnvelope(br, &buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if env.typ != c.typ || env.stream != c.stream || !bytes.Equal(env.payload, c.payload) {
			t.Fatalf("case %d: got (%d,%d,%x), want (%d,%d,%x)",
				i, env.typ, env.stream, env.payload, c.typ, c.stream, c.payload)
		}
	}
	if _, err := readEnvelope(br, &buf); err != io.EOF {
		t.Fatalf("want clean EOF after last message, got %v", err)
	}
}

func TestEnvelopeRejectsCorruption(t *testing.T) {
	wire := appendEnvelope(nil, msgRounds, 0, appendRoundsEntry(nil, 5, 0, []int32{1, 2}, false, 0, 20))

	// Truncation at every prefix length must error, never panic. A cut
	// before the full length prefix is a clean EOF boundary; anything past
	// it is mid-message.
	for n := 0; n < len(wire); n++ {
		var buf []byte
		_, err := readEnvelope(bytes.NewReader(wire[:n]), &buf)
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded", n, len(wire))
		}
	}

	// Every single-bit flip in the body must be detected (the length field
	// is outside the CRC, but a flip there misframes the body and the CRC
	// or length bound catches it — all that matters is an error).
	for i := 0; i < len(wire)*8; i++ {
		mut := append([]byte(nil), wire...)
		mut[i/8] ^= 1 << (i % 8)
		var buf []byte
		if _, err := readEnvelope(bytes.NewReader(mut), &buf); err == nil {
			t.Fatalf("bit flip at %d decoded undetected", i)
		}
	}
}

func TestEnvelopeRejectsVersionSkew(t *testing.T) {
	wire := appendEnvelope(nil, msgFlush, 0, nil)
	// Patch the version byte and re-seal the CRC so only the version is
	// wrong — decode must fail with ErrVersion specifically.
	body := wire[4:]
	body[0] = ProtoVersion + 1
	crc := crc32.Checksum(body[:len(body)-envTailBytes], envCRC)
	binary.LittleEndian.PutUint32(body[len(body)-envTailBytes:], crc)
	var buf []byte
	_, err := readEnvelope(bytes.NewReader(wire), &buf)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestEnvelopeRejectsOversize(t *testing.T) {
	var wire []byte
	wire = binary.LittleEndian.AppendUint32(wire, maxEnvelope+1)
	wire = append(wire, make([]byte, 64)...)
	var buf []byte
	if _, err := readEnvelope(bytes.NewReader(wire), &buf); !errors.Is(err, ErrEnvelope) {
		t.Fatalf("want ErrEnvelope for oversize length, got %v", err)
	}
}

// TestRoundPayloadRoundTrip covers the version-3 round entry: seq, flags,
// a penalty present if and only if it is nonzero, and the §VII payload in
// whichever mode is smaller — and nothing else: no frame magic, frame seq
// or CRC.
func TestRoundPayloadRoundTrip(t *testing.T) {
	const per = 30 // d = 6: a 4-byte bitmap
	for _, tc := range []struct {
		seq     uint32
		events  []int32
		erased  bool
		penalty float64
		size    int // seq + flags + penalty + mode + sparse count and indices or bitmap
	}{
		{0, nil, false, 0, 4 + 1 + 1 + 2},
		{7, []int32{0, 1, 29}, false, 123.5, 4 + 1 + 8 + 1 + 4},
		{1 << 30, []int32{14}, false, 0, 4 + 1 + 1 + 2 + 2},
		{3, nil, true, 800, 4 + 1 + 8},
		{9, nil, true, 0, 4 + 1},
		{11, []int32{2, 3, 5, 7, 11, 13, 17}, false, math.SmallestNonzeroFloat64, 4 + 1 + 8 + 1 + 4},
	} {
		p := appendRoundPayload(nil, tc.seq, tc.events, tc.erased, tc.penalty, per)
		if len(p) != tc.size {
			t.Fatalf("%+v: entry is %d bytes, want %d", tc, len(p), tc.size)
		}
		if hasPenalty := p[4]&roundFlagPenalty != 0; hasPenalty != (tc.penalty != 0) {
			t.Fatalf("%+v: penalty flag %v", tc, hasPenalty)
		}
		seq, ev, erased, pen, err := decodeRoundPayload(p, per, nil)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if erased != tc.erased || pen != tc.penalty {
			t.Fatalf("%+v: got erased=%v pen=%v", tc, erased, pen)
		}
		// Erased rounds carry the seq too — every round participates in
		// the shard's ordering check, erased or not.
		if seq != tc.seq {
			t.Fatalf("%+v: got seq %d", tc, seq)
		}
		if !tc.erased && !reflect.DeepEqual(append([]int32{}, ev...), append([]int32{}, tc.events...)) {
			t.Fatalf("%+v: got events %v", tc, ev)
		}
		if q := appendRoundPayload(nil, seq, ev, erased, pen, per); !bytes.Equal(q, p) {
			t.Fatalf("%+v: re-encodes to %x, want %x", tc, q, p)
		}
	}

	// Negative, NaN and Inf penalties are wire corruption, not data, and
	// so is a present penalty of zero (either sign): a zero penalty is
	// encoded by leaving it out.
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
		p := binary.LittleEndian.AppendUint32(nil, 5)
		p = append(p, roundFlagErased|roundFlagPenalty)
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(bad))
		if _, _, _, _, err := decodeRoundPayload(p, per, nil); err == nil {
			t.Fatalf("penalty %v decoded", bad)
		}
	}
	// A sign-flipped zero is still no penalty.
	if p := appendRoundPayload(nil, 1, nil, true, math.Copysign(0, -1), per); len(p) != 5 {
		t.Fatalf("-0 penalty encoded as %x", p)
	}
	// Unknown flags, events after an erased round, a truncated penalty,
	// and a payload mode the encoder would not pick are corruption.
	erased := appendRoundPayload(nil, 1, nil, true, 0, per)
	bitmap := appendRoundPayload(nil, 1, []int32{2, 3, 5, 7, 11, 13, 17}, false, 0, per)
	oneAsBitmap := append(binary.LittleEndian.AppendUint32(nil, 1), 0, 1, 0b00000100, 0, 0, 0) // sparse is as small
	twoAsSparse := append(binary.LittleEndian.AppendUint32(nil, 1), 0, 0, 2, 0, 2, 0, 3, 0)    // the bitmap is smaller
	for i, bad := range [][]byte{
		{1, 0, 0, 0, 4},
		append(append([]byte{}, erased...), 0),
		append(binary.LittleEndian.AppendUint32(nil, 1), roundFlagPenalty, 0, 0, 0, 0, 0, 0, 0xf0),
		bitmap[:len(bitmap)-1],
		oneAsBitmap,
		twoAsSparse,
	} {
		if _, _, _, _, err := decodeRoundPayload(bad, per, nil); err == nil {
			t.Fatalf("malformed entry %d (%x) decoded", i, bad)
		}
	}
}

func TestCorrPayloadRoundTrip(t *testing.T) {
	want := stream.Correction{Kind: lattice.Temporal, Qubit: -1, Ancilla: 19, Round: 1 << 40}
	p := appendCorrEntry(nil, 5, 77, want)
	if len(p) != corrEntryBytes {
		t.Fatalf("entry is %d bytes, want %d", len(p), corrEntryBytes)
	}
	id, seq, got, err := decodeCorrEntry(p)
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 || seq != 77 || got != want {
		t.Fatalf("got stream=%d seq=%d %+v, want stream=5 seq=77 %+v", id, seq, got, want)
	}
	// A kind byte past the enum is corruption.
	p[12] = uint8(lattice.Temporal) + 1
	if _, _, _, err := decodeCorrEntry(p); err == nil {
		t.Fatal("invalid edge kind decoded")
	}
	// So is a batch that is not a whole number of entries.
	if err := (&Router{}).handleCorrs(&link{}, testCorrs()[:corrEntryBytes+3]); err == nil {
		t.Fatal("truncated corrs batch delivered")
	}
}

func TestRoundsEntriesRoundTrip(t *testing.T) {
	want := []struct {
		id, seq uint32
		n       int
		erased  bool
	}{{1234, 3, 3, false}, {7, 40, 0, true}, {7, 41, 1, false}}
	p := testRounds()
	for i, w := range want {
		id, round, rest, err := nextRoundsEntry(p)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		seq, ev, erased, _, err := decodeRoundPayload(round, 20, nil)
		if err != nil || id != w.id || seq != w.seq || len(ev) != w.n || erased != w.erased {
			t.Fatalf("entry %d: got id=%d seq=%d events=%v erased=%v err=%v, want %+v", i, id, seq, ev, erased, err, w)
		}
		p = rest
	}
	if len(p) != 0 {
		t.Fatalf("%d bytes left after the last entry", len(p))
	}

	// Every cut that splits an entry is an error, and so is a length
	// running past the payload.
	full := testRounds()
	first := roundsEntryHead + int(binary.LittleEndian.Uint32(full[4:]))
	for n := 1; n < first; n++ {
		if _, _, _, err := nextRoundsEntry(full[:n]); err == nil {
			t.Fatalf("entry truncated to %d of %d bytes split cleanly", n, first)
		}
	}
	long := append([]byte(nil), full[:first]...)
	binary.LittleEndian.PutUint32(long[4:], uint32(first))
	if _, _, _, err := nextRoundsEntry(long); err == nil {
		t.Fatal("over-long entry length split cleanly")
	}
}

func TestOpenPayloadRoundTrip(t *testing.T) {
	want := openPayload{Distance: 11, Window: 11, Commit: 5, QueueCap: 8, DeadlineNS: 600, Rounds: 640, CorrSeq: 12, Snapshot: testSnapshot()}
	got, err := decodeOpenPayload(appendOpenPayload(nil, want))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v (%v), want %+v", got, err, want)
	}
	if _, err := decodeOpenPayload(make([]byte, openHeadBytes-1)); err == nil {
		t.Fatal("truncated open payload decoded")
	}
}

func TestCkptPayloadRoundTrip(t *testing.T) {
	snap := testSnapshot()
	p := appendCkptPayload(nil, 640, 12, snap)
	rounds, corrSeq, got, err := decodeCkptPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 640 || corrSeq != 12 || !bytes.Equal(got, snap) {
		t.Fatalf("got (%d,%d,%s)", rounds, corrSeq, got)
	}
	if _, _, _, err := decodeCkptPayload(p[:ckptHeadBytes-1]); err == nil {
		t.Fatal("truncated checkpoint payload decoded")
	}
}

// FuzzWireProtocol feeds arbitrary bytes to the envelope reader and the
// per-type payload decoders. Whatever the input — truncated, corrupted,
// version-skewed, adversarial lengths — decoding must return an error or a
// canonical message, and must never panic, hang, or mis-decode: any
// envelope, batch or payload that decodes successfully must re-encode to
// the identical bytes.
func FuzzWireProtocol(f *testing.F) {
	f.Add(appendEnvelope(nil, msgOpen, 0, appendOpenPayload(nil, openPayload{Distance: 5, Window: 5, Commit: 2})))
	f.Add(appendEnvelope(nil, msgRounds, 0, appendRoundsEntry(nil, 3, 9, []int32{0, 7, 19}, false, 2.5, 20)))
	f.Add(appendEnvelope(nil, msgRounds, 0, appendRoundsEntry(nil, 3, 0, nil, true, 100, 20)))
	f.Add(appendEnvelope(nil, msgCorrs, 0, appendCorrEntry(nil, 1, 4, stream.Correction{Kind: lattice.Spatial, Qubit: 2, Ancilla: -1, Round: 11})))
	f.Add(appendEnvelope(nil, msgCheckpoint, 1, appendCkptPayload(nil, 128, 40, testSnapshot())))
	f.Add(appendEnvelope(nil, msgFlushOK, 0, []byte(`{"Windows":3}`)))
	f.Add(append(appendEnvelope(nil, msgFlush, 0, nil), appendEnvelope(nil, msgClose, 2, nil)...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(appendEnvelope(nil, msgRounds, 0, testRounds()))
	f.Add(appendEnvelope(nil, msgCorrs, 0, testCorrs()))
	f.Add(appendEnvelope(nil, msgOpen, 4, appendOpenPayload(nil, openPayload{Distance: 5, Window: 5, Commit: 2, QueueCap: 8, DeadlineNS: 600, Rounds: 64, CorrSeq: 3, Snapshot: testSnapshot()})))
	// Version-3 entries: no penalty, a bitmap payload, an erased round
	// without a penalty; and the ack closing an envelope.
	f.Add(appendEnvelope(nil, msgRounds, 0, appendRoundsEntry(nil, 2, 5, []int32{4}, false, 0, 20)))
	f.Add(appendEnvelope(nil, msgRounds, 0, appendRoundsEntry(nil, 2, 6, []int32{0, 2, 4, 6, 8, 10, 12, 14}, false, 0, 20)))
	f.Add(appendEnvelope(nil, msgRounds, 0, appendRoundsEntry(nil, 2, 7, nil, true, 0, 20)))
	f.Add(append(appendEnvelope(nil, msgCorrs, 0, testCorrs()), appendEnvelope(nil, msgRoundsOK, 0, nil)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bytes.NewReader(data)
		var buf []byte
		for {
			env, err := readEnvelope(br, &buf)
			if err != nil {
				return // detected corruption or end of input — both fine
			}
			// Canonical re-encode: a decoded envelope must serialize back
			// to exactly the bytes it came from (no second representation
			// of the same message).
			re := appendEnvelope(nil, env.typ, env.stream, env.payload)
			whole := len(data) - br.Len()
			n := len(re)
			if whole < n || !bytes.Equal(data[whole-n:whole], re) {
				t.Fatalf("envelope does not re-encode canonically")
			}
			// The payload decoders must tolerate arbitrary payloads for
			// their type.
			switch env.typ {
			case msgRounds:
				const per = 20
				var rp []byte
				for p := env.payload; len(p) > 0; {
					id, round, rest, err := nextRoundsEntry(p)
					if err != nil {
						rp = nil
						break
					}
					p = rest
					seq, ev, erased, pen, err := decodeRoundPayload(round, per, nil)
					if err != nil {
						rp = nil
						break
					}
					for _, e := range ev {
						if e < 0 || int(e) >= per {
							t.Fatalf("round payload decoded out-of-range event %d", e)
						}
					}
					rp = appendRoundsEntry(rp, id, seq, ev, erased, pen, per)
					if len(p) == 0 && !bytes.Equal(rp, env.payload) {
						t.Fatalf("rounds batch does not re-encode canonically")
					}
				}
			case msgCorrs:
				if len(env.payload)%corrEntryBytes != 0 {
					break
				}
				var rp []byte
				for p := env.payload; len(p) > 0; p = p[corrEntryBytes:] {
					id, seq, c, err := decodeCorrEntry(p)
					if err != nil {
						rp = nil
						break
					}
					rp = appendCorrEntry(rp, id, seq, c)
				}
				if rp != nil && !bytes.Equal(rp, env.payload) {
					t.Fatalf("corrs batch does not re-encode canonically")
				}
			case msgOpen:
				if op, err := decodeOpenPayload(env.payload); err == nil {
					if !bytes.Equal(appendOpenPayload(nil, op), env.payload) {
						t.Fatalf("open payload does not re-encode canonically")
					}
				}
			case msgCheckpoint:
				if rounds, corrSeq, snap, err := decodeCkptPayload(env.payload); err == nil {
					if !bytes.Equal(appendCkptPayload(nil, rounds, corrSeq, snap), env.payload) {
						t.Fatalf("checkpoint payload does not re-encode canonically")
					}
				}
			}
		}
	})
}

// TestWireSteadyStateZeroAllocs pins the data path's allocation budget:
// once buffers have grown, reading envelopes of every message type off a
// bufio.Reader, splitting and decoding the round and correction batches,
// framing envelopes and encoding batches all allocate nothing.
func TestWireSteadyStateZeroAllocs(t *testing.T) {
	payloads := map[uint8][]byte{
		msgOpen:       appendOpenPayload(nil, openPayload{Distance: 5, Window: 5, Commit: 2, Snapshot: testSnapshot()}),
		msgOpenOK:     nil,
		msgRefuse:     []byte("admission cap reached"),
		msgRounds:     testRounds(),
		msgCorrs:      testCorrs(),
		msgCheckpoint: appendCkptPayload(nil, 64, 12, testSnapshot()),
		msgFlush:      nil,
		msgFlushOK:    []byte(`{}`),
		msgClose:      nil,
		msgRoundsOK:   nil,
	}
	var wire []byte
	for typ := uint8(msgOpen); typ <= msgRoundsOK; typ++ {
		if typ == 9 || typ == 10 {
			continue // retired
		}
		p, ok := payloads[typ]
		if !ok {
			t.Fatalf("no payload for message type %d", typ)
		}
		wire = appendEnvelope(wire, typ, uint32(typ), p)
	}
	rd := bytes.NewReader(wire)
	br := bufio.NewReaderSize(rd, 1<<16)
	var buf []byte
	var out []int32
	read := testing.AllocsPerRun(100, func() {
		rd.Reset(wire)
		br.Reset(rd)
		for {
			env, err := readEnvelope(br, &buf)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			switch env.typ {
			case msgRounds:
				for p := env.payload; len(p) > 0; {
					_, round, rest, err := nextRoundsEntry(p)
					if err != nil {
						t.Fatal(err)
					}
					if _, out, _, _, err = decodeRoundPayload(round, 20, out[:0]); err != nil {
						t.Fatal(err)
					}
					p = rest
				}
			case msgCorrs:
				for p := env.payload; len(p) > 0; p = p[corrEntryBytes:] {
					if _, _, _, err := decodeCorrEntry(p); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	})
	if read != 0 {
		t.Fatalf("reading a stream of envelopes allocates %.1f times per pass, want 0", read)
	}

	events := []int32{0, 5, 19}
	corr := stream.Correction{Kind: lattice.Spatial, Qubit: 3, Ancilla: -1, Round: 17}
	var batch, env []byte
	write := testing.AllocsPerRun(100, func() {
		batch = batch[:0]
		for id := uint32(0); id < 64; id++ {
			batch = appendRoundsEntry(batch, id, 9, events, false, 0, 20)
		}
		env = appendEnvelope(env[:0], msgRounds, 0, batch)
		batch = batch[:0]
		for id := uint32(0); id < 64; id++ {
			batch = appendCorrEntry(batch, id, 1, corr)
		}
		env = appendEnvelope(env[:0], msgCorrs, 0, batch)
	})
	if write != 0 {
		t.Fatalf("encoding batches and envelopes allocates %.1f times per pass, want 0", write)
	}
}
