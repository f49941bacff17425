package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record framing: every log record is one frame,
//
//	u32le length | u32le crc32c(payload) | payload
//
// followed immediately by the next frame. The length covers the
// payload only; the CRC is Castagnoli over the payload bytes. A frame
// whose length field is implausible, whose payload is cut short, or
// whose CRC mismatches marks the end of the log's valid prefix —
// recovery truncates there (torn-tail detection) and discards
// everything after it, because durability is ordered: a later frame
// can only be trusted if every earlier frame is intact.
//
// Payloads are a kind byte followed by uvarint fields:
//
//	ingest  (1): slot, instance, seq, hotspot, video, count
//	advance (2): slot
//	plan    (3): slot, epoch, digest (8 bytes le), len, canonical bytes
//	roundErr(4): slot
//
// ingest records one accepted request (or a pre-aggregated count)
// tagged with the slot the owning frontend was accumulating for;
// advance marks a slot boundary (the drained slot number); plan
// records a scheduled plan's canonical bytes and digest; roundErr
// records that a slot's round failed its contract and the drained
// demand was dropped (mirroring the live server, which keeps serving
// the previous plan).

const (
	frameHeaderBytes = 8
	// maxRecordBytes bounds a single payload; a length field above it
	// is treated as corruption rather than an allocation request.
	maxRecordBytes = 64 << 20
)

const (
	recIngest   byte = 1
	recAdvance  byte = 2
	recPlan     byte = 3
	recRoundErr byte = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded log record. canonical aliases the payload it
// was decoded from: whoever keeps a plan record past the scan copies
// the bytes.
type record struct {
	kind      byte
	slot      int
	instance  int
	seq       uint64
	hotspot   int
	video     int
	count     int64
	epoch     int64
	digest    uint64
	canonical []byte
}

// appendFrame appends payload as one framed record.
func appendFrame(b, payload []byte) []byte {
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	b = append(b, hdr[:]...)
	return append(b, payload...)
}

// encode appends the record's payload (not the frame) to b.
func (r *record) encode(b []byte) []byte {
	b = append(b, r.kind)
	switch r.kind {
	case recIngest:
		b = binary.AppendUvarint(b, uint64(r.slot))
		b = binary.AppendUvarint(b, uint64(r.instance))
		b = binary.AppendUvarint(b, r.seq)
		b = binary.AppendUvarint(b, uint64(r.hotspot))
		b = binary.AppendUvarint(b, uint64(r.video))
		b = binary.AppendUvarint(b, uint64(r.count))
	case recAdvance, recRoundErr:
		b = binary.AppendUvarint(b, uint64(r.slot))
	case recPlan:
		b = binary.AppendUvarint(b, uint64(r.slot))
		b = binary.AppendUvarint(b, uint64(r.epoch))
		b = binary.LittleEndian.AppendUint64(b, r.digest)
		b = binary.AppendUvarint(b, uint64(len(r.canonical)))
		b = append(b, r.canonical...)
	}
	return b
}

// uvarint reads one uvarint, reporting the remaining bytes.
func uvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

// uvarintBounded reads one uvarint that must fit the given bound
// (guarding the int conversions on 32-bit-hostile inputs).
func uvarintBounded(b []byte, bound uint64) (uint64, []byte, bool) {
	v, rest, ok := uvarint(b)
	if !ok || v > bound {
		return 0, nil, false
	}
	return v, rest, true
}

const (
	maxSlotValue     = 1 << 40
	maxInstanceValue = 1 << 20
	maxEntityValue   = 1 << 40 // hotspot / video ids
	maxCountValue    = 1 << 50
)

// decodeRecord strictly decodes one payload. Trailing bytes or
// out-of-range fields are errors: a CRC-valid frame that fails to
// decode is treated exactly like corruption by the replay layer.
func decodeRecord(payload []byte) (record, error) {
	if len(payload) == 0 {
		return record{}, fmt.Errorf("wal: empty record payload")
	}
	r := record{kind: payload[0]}
	b := payload[1:]
	var v uint64
	var ok bool
	switch r.kind {
	case recIngest:
		if v, b, ok = uvarintBounded(b, maxSlotValue); !ok {
			return record{}, fmt.Errorf("wal: ingest record: bad slot")
		}
		r.slot = int(v)
		if v, b, ok = uvarintBounded(b, maxInstanceValue); !ok {
			return record{}, fmt.Errorf("wal: ingest record: bad instance")
		}
		r.instance = int(v)
		if r.seq, b, ok = uvarint(b); !ok {
			return record{}, fmt.Errorf("wal: ingest record: bad seq")
		}
		if v, b, ok = uvarintBounded(b, maxEntityValue); !ok {
			return record{}, fmt.Errorf("wal: ingest record: bad hotspot")
		}
		r.hotspot = int(v)
		if v, b, ok = uvarintBounded(b, maxEntityValue); !ok {
			return record{}, fmt.Errorf("wal: ingest record: bad video")
		}
		r.video = int(v)
		if v, b, ok = uvarintBounded(b, maxCountValue); !ok || v == 0 {
			return record{}, fmt.Errorf("wal: ingest record: bad count")
		}
		r.count = int64(v)
	case recAdvance, recRoundErr:
		if v, b, ok = uvarintBounded(b, maxSlotValue); !ok {
			return record{}, fmt.Errorf("wal: advance record: bad slot")
		}
		r.slot = int(v)
	case recPlan:
		if v, b, ok = uvarintBounded(b, maxSlotValue); !ok {
			return record{}, fmt.Errorf("wal: plan record: bad slot")
		}
		r.slot = int(v)
		if v, b, ok = uvarintBounded(b, 1<<62); !ok {
			return record{}, fmt.Errorf("wal: plan record: bad epoch")
		}
		r.epoch = int64(v)
		if len(b) < 8 {
			return record{}, fmt.Errorf("wal: plan record: truncated digest")
		}
		r.digest = binary.LittleEndian.Uint64(b[:8])
		b = b[8:]
		// The bound must be the bytes left AFTER the length varint, or
		// a truncated body whose length still fits the pre-read bound
		// would slice past the end.
		if v, b, ok = uvarint(b); !ok || v > uint64(len(b)) {
			return record{}, fmt.Errorf("wal: plan record: bad canonical length")
		}
		r.canonical = b[:v:v]
		b = b[v:]
	default:
		return record{}, fmt.Errorf("wal: unknown record kind %d", r.kind)
	}
	if len(b) != 0 {
		return record{}, fmt.Errorf("wal: %d trailing bytes after record", len(b))
	}
	return r, nil
}

// scanSegment walks data's longest valid record prefix, handing each
// CRC-valid, strictly decoded record to visit in log order, and
// returns the byte length of that prefix — everything after it is a
// torn tail or corruption and must be truncated. scanSegment never
// panics, whatever the bytes (FuzzWALReplay holds it to that).
func scanSegment(data []byte, visit func(record)) (validLen int) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) < frameHeaderBytes {
			return off
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxRecordBytes || int(n) > len(rest)-frameHeaderBytes {
			return off
		}
		payload := rest[frameHeaderBytes : frameHeaderBytes+int(n)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			return off
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return off
		}
		visit(rec)
		off += frameHeaderBytes + int(n)
	}
}
