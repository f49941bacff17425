package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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
//	ingest  (5): slot, instance, hotspot, video, count
//	advance (2): slot
//	plan    (3): slot, epoch, digest (8 bytes le), len, canonical bytes
//	roundErr(4): slot
//
// ingest records one accepted request (or a pre-aggregated count)
// tagged with the slot the owning frontend was accumulating for;
// instance is the frontend that accepted it, provenance only —
// recovery does not read it. advance marks a slot boundary (the
// drained slot number); plan records a scheduled plan's canonical
// bytes and digest; roundErr records that a slot's round failed its
// contract and the drained demand was dropped (mirroring the live
// server, which keeps serving the previous plan). Kind 1 is the
// retired ingest record, which also carried a tier-wide ingest
// sequence: a log holding one was written by an older build, and Open
// refuses it rather than misread it.

const (
	frameHeaderBytes = 8
	// maxRecordBytes bounds a single payload; a length field above it
	// is treated as corruption rather than an allocation request.
	maxRecordBytes = 64 << 20
)

const (
	recRetired  byte = 1 // the retired ingest record, which carried a sequence
	recAdvance  byte = 2
	recPlan     byte = 3
	recRoundErr byte = 4
	recIngest   byte = 5
)

// errRetiredIngest marks a CRC-valid ingest frame of the retired
// format: not damage to truncate, but a log this build cannot read.
var errRetiredIngest = errors.New("wal: ingest record of a retired format (kind 1, an older build's log)")

// errBadFrame marks a frame whose length is implausible or whose CRC
// mismatches: where the log's valid prefix ends.
var errBadFrame = errors.New("wal: invalid frame")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded log record. canonical aliases the payload it
// was decoded from: whoever keeps a plan record past the scan copies
// the bytes. The scan decodes every frame into one record and hands
// the fold a pointer to it.
type record struct {
	kind      byte
	slot      int
	instance  int
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

// ingestBounds are the upper bounds of an ingest's five uvarint fields
// in payload order: slot, instance, hotspot, video, count.
var ingestBounds = [5]uint64{maxSlotValue, maxInstanceValue, maxEntityValue, maxEntityValue, maxCountValue}

var ingestFields = [5]string{"slot", "instance", "hotspot", "video", "count"}

// decode strictly decodes one payload into r, overwriting every field.
// Trailing bytes or out-of-range fields are errors: a CRC-valid frame
// that fails to decode is treated exactly like corruption by the
// replay layer.
func (r *record) decode(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record payload")
	}
	*r = record{kind: payload[0]}
	b := payload[1:]
	var v uint64
	var ok bool
	switch r.kind {
	case recIngest:
		// One pass over the five fields; a field below 0x80 is one byte,
		// the rest go through binary.Uvarint — the same acceptance as
		// uvarintBounded field by field.
		var f [5]uint64
		for i := range f {
			if len(b) > 0 && b[0] < 0x80 {
				v, b = uint64(b[0]), b[1:]
			} else {
				n := 0
				if v, n = binary.Uvarint(b); n <= 0 {
					return fmt.Errorf("wal: ingest record: bad %s", ingestFields[i])
				}
				b = b[n:]
			}
			if v > ingestBounds[i] || i == 4 && v == 0 {
				return fmt.Errorf("wal: ingest record: bad %s", ingestFields[i])
			}
			f[i] = v
		}
		r.slot, r.instance = int(f[0]), int(f[1])
		r.hotspot, r.video, r.count = int(f[2]), int(f[3]), int64(f[4])
	case recAdvance, recRoundErr:
		if v, b, ok = uvarintBounded(b, maxSlotValue); !ok {
			return fmt.Errorf("wal: advance record: bad slot")
		}
		r.slot = int(v)
	case recPlan:
		if v, b, ok = uvarintBounded(b, maxSlotValue); !ok {
			return fmt.Errorf("wal: plan record: bad slot")
		}
		r.slot = int(v)
		if v, b, ok = uvarintBounded(b, 1<<62); !ok {
			return fmt.Errorf("wal: plan record: bad epoch")
		}
		r.epoch = int64(v)
		if len(b) < 8 {
			return fmt.Errorf("wal: plan record: truncated digest")
		}
		r.digest = binary.LittleEndian.Uint64(b[:8])
		b = b[8:]
		// The bound must be the bytes left AFTER the length varint, or
		// a truncated body whose length still fits the pre-read bound
		// would slice past the end.
		if v, b, ok = uvarint(b); !ok || v > uint64(len(b)) {
			return fmt.Errorf("wal: plan record: bad canonical length")
		}
		r.canonical = b[:v:v]
		b = b[v:]
	case recRetired:
		return errRetiredIngest
	default:
		return fmt.Errorf("wal: unknown record kind %d", r.kind)
	}
	if len(b) != 0 {
		return fmt.Errorf("wal: %d trailing bytes after record", len(b))
	}
	return nil
}

// scanFrames walks the whole frames at the front of data, decoding
// each CRC-valid one into rec and handing rec to visit in log order,
// and returns how many bytes they span. stop says why the walk ended
// at an invalid frame — implausible length, CRC mismatch or the strict
// decode's error — and is nil when it ended at a frame data holds only
// part of. rec is reused for every frame: visit copies what it keeps.
// scanFrames never panics, whatever the bytes (FuzzWALReplay holds it
// to that).
func scanFrames(data []byte, rec *record, visit func(*record)) (off int, stop error) {
	for {
		rest := data[off:]
		if len(rest) < frameHeaderBytes {
			return off, nil
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxRecordBytes {
			return off, errBadFrame
		}
		if int(n) > len(rest)-frameHeaderBytes {
			return off, nil
		}
		payload := rest[frameHeaderBytes : frameHeaderBytes+int(n)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			return off, errBadFrame
		}
		if err := rec.decode(payload); err != nil {
			return off, err
		}
		visit(rec)
		off += frameHeaderBytes + int(n)
	}
}

// readWindow is the size of the buffer segments are scanned through; a
// frame longer than it grows the buffer to fit.
const readWindow = 256 << 10

// segmentScanner scans segment files through one buffer, reused from
// segment to segment, decoding into one reused record.
type segmentScanner struct {
	// window is how many bytes a read asks for (readWindow in Open).
	window int
	buf    []byte
	rec    record
}

// scan hands every record of the longest valid run of frames starting
// at byte from of the segment at path to visit, in log order, and
// returns where that run ends and the file's size; a file shorter than
// from is an error, and so is a run that ends at an ingest record of
// the retired format. The file is read window by window: only the
// frame the window ends inside moves to its front before the next read.
func (sc *segmentScanner) scan(path string, from int64, visit func(*record)) (validLen, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size = fi.Size()
	if size < from {
		return 0, 0, fmt.Errorf("%d bytes, shorter than the checkpoint's offset %d", size, from)
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, 0, err
	}
	validLen = from
	if want := int(max(min(size-from, int64(sc.window)), frameHeaderBytes)); cap(sc.buf) < want {
		sc.buf = make([]byte, 0, want)
	}
	buf := sc.buf[:0]
	for {
		n, rerr := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		eof := rerr == io.EOF
		if rerr != nil && !eof {
			return 0, 0, rerr
		}
		off, stop := scanFrames(buf, &sc.rec, visit)
		validLen += int64(off)
		if errors.Is(stop, errRetiredIngest) {
			return 0, 0, fmt.Errorf("byte %d: %w", validLen, stop)
		}
		if stop != nil || eof {
			sc.buf = buf
			return validLen, size, nil
		}
		buf = buf[:copy(buf, buf[off:])]
		if len(buf) >= frameHeaderBytes {
			need := frameHeaderBytes + int(binary.LittleEndian.Uint32(buf[0:4]))
			if int64(need) > size-validLen {
				return validLen, size, nil // a torn frame: it ends past the file
			}
			if need > cap(buf) {
				// A frame longer than the window: make room for all of it.
				buf = append(buf, make([]byte, need-len(buf))...)[:len(buf)]
			}
		}
	}
}
