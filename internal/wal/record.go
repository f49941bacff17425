package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
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
// was decoded from until the scan verifies the plan record (verify),
// which copies the bytes that pass. The scan decodes frames into
// blocks of records and hands the fold each block whole.
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
	// plan is the verdict on a plan record's bytes, set by verify: the
	// decoded plan, nil when they fail verification.
	plan *core.Plan
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
	// Every field is overwritten. r is a block's slot, reused: its
	// pointers are cleared only when a plan record left them set, since
	// clearing the whole struct takes the write barrier on every record
	// while a collection runs.
	if r.canonical != nil || r.plan != nil {
		r.canonical, r.plan = nil, nil
	}
	r.kind, r.slot, r.instance, r.hotspot, r.video = payload[0], 0, 0, 0, 0
	r.count, r.epoch, r.digest = 0, 0, 0
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

// decodeFrames decodes the whole frames at the front of data into
// recs, in log order, until recs is full or data holds only part of
// the next frame, and returns the bytes and the records it took. stop
// says why it ended at an invalid frame — implausible length, CRC
// mismatch or the strict decode's error — and is nil otherwise. A plan
// record's canonical aliases data. decodeFrames never panics, whatever
// the bytes (FuzzWALReplay holds it to that).
func decodeFrames(data []byte, recs []record) (off, n int, stop error) {
	for n < len(recs) {
		rest := data[off:]
		if len(rest) < frameHeaderBytes {
			return off, n, nil
		}
		size := binary.LittleEndian.Uint32(rest[0:4])
		if size > maxRecordBytes {
			return off, n, errBadFrame
		}
		if int(size) > len(rest)-frameHeaderBytes {
			return off, n, nil
		}
		payload := rest[frameHeaderBytes : frameHeaderBytes+int(size)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			return off, n, errBadFrame
		}
		if err := recs[n].decode(payload); err != nil {
			return off, n, err
		}
		off += frameHeaderBytes + int(size)
		n++
	}
	return off, n, nil
}

// verify holds a plan record's bytes to verifyPlan and hands the
// verdict to the fold in r.plan. Bytes that pass are copied out of the
// read window they alias, which the scan reuses before the fold gets
// to them; bytes that fail are dropped.
func (r *record) verify(spent *time.Duration) {
	if r.plan = verifyPlan(r.canonical, r.digest, spent); r.plan != nil {
		r.canonical = bytes.Clone(r.canonical)
	} else {
		r.canonical = nil
	}
}

const (
	// readWindow is the size of the buffer segments are scanned
	// through; a frame longer than it grows the buffer to fit.
	readWindow = 256 << 10
	// blockRecords is how many records the scan hands the fold at a
	// time, and pipeBlocks how many blocks are in flight between them.
	blockRecords = 1024
	pipeBlocks   = 4
	// minFrameBytes is the shortest frame (an advance or roundErr of a
	// one-byte slot), minIngestFrameBytes the shortest ingest frame
	// (five one-byte fields): the bytes left to scan bound the records,
	// and the ingests, still to come.
	minFrameBytes       = frameHeaderBytes + 2
	minIngestFrameBytes = frameHeaderBytes + 6
)

// A block is a run of consecutive records the scan hands the fold
// whole. Blocks go round between the two goroutines: the fold hands a
// block back once it has folded it, and the scan overwrites it.
type block struct {
	recs []record
	// left is the bytes the scan had yet to read when it decoded the
	// block's first record: the fold sizes runs from it.
	left int64
}

// segmentScanner scans segment files through one buffer, reused from
// segment to segment, decoding the frames into blocks of records that
// it hands to the fold, which runs on a goroutine of its own. The
// scan owns the read window, so it verifies plan records too (verify):
// the fold gets the verdict. After the first plan record that fails,
// it verifies no more — the fold stops at that record — but scans on,
// to find where the valid prefix ends.
type segmentScanner struct {
	// window is how many bytes a read asks for (readWindow in Open),
	// block how many records a block holds (blockRecords).
	window, block int
	buf           []byte
	// left is the bytes the scan has yet to read.
	left int64
	// cur is the block being filled (nil between blocks); full and
	// free carry blocks to the fold and back, made counts the blocks
	// allocated.
	cur        *block
	full, free chan *block
	made       int
	// verify is the time spent verifying plan records, failed whether
	// one has failed.
	verify time.Duration
	failed bool
}

// scanEnd is where a scan of the log stopped: at byte valid of the
// segment segs[seg], size bytes long, or after the last segment, whole
// (seg == len(segs)).
type scanEnd struct {
	seg         int
	valid, size int64
}

// run scans the segments segs of the log in dir in order, the first
// from byte from, on the calling goroutine, and hands fold every block
// of records on a second one, in log order, until a segment ends at
// an invalid frame. It returns when both are done: on an error too, so
// no goroutine outlives it.
func (sc *segmentScanner) run(dir string, segs []uint64, from int64, fold func(*block)) (end scanEnd, err error) {
	sc.left = -from
	for _, idx := range segs {
		if fi, err := os.Stat(filepath.Join(dir, segmentName(idx))); err == nil {
			sc.left += fi.Size()
		}
	}
	// Both channels hold every block there can be, so neither side's
	// send ever waits: the scan waits only for a free block, the fold
	// only for a full one.
	sc.full, sc.free, sc.made = make(chan *block, pipeBlocks), make(chan *block, pipeBlocks), 0
	folded := make(chan struct{})
	go func() {
		defer close(folded)
		for b := range sc.full {
			fold(b)
			sc.free <- b
		}
	}()
	defer func() {
		if sc.cur != nil && len(sc.cur.recs) > 0 {
			sc.full <- sc.cur
		}
		sc.cur = nil
		close(sc.full)
		<-folded
	}()
	for i, idx := range segs {
		path := filepath.Join(dir, segmentName(idx))
		valid, size, err := sc.scan(path, from)
		if err != nil {
			return scanEnd{}, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		from = 0
		if valid < size {
			return scanEnd{seg: i, valid: valid, size: size}, nil
		}
	}
	return scanEnd{seg: len(segs)}, nil
}

// scan decodes the longest valid run of frames starting at byte from
// of the segment at path into blocks, and returns where that run ends
// and the file's size; a file shorter than from is an error, and so is
// a run that ends at an ingest record of the retired format. The file
// is read window by window: only the frame the window ends inside
// moves to its front before the next read.
func (sc *segmentScanner) scan(path string, from int64) (validLen, size int64, err error) {
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
		off, stop := sc.decode(buf)
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

// decode decodes the whole frames at the front of data into blocks,
// verifying each plan record, and hands every block it fills to the
// fold. It returns the bytes the frames span and, like decodeFrames,
// why it stopped at an invalid frame.
func (sc *segmentScanner) decode(data []byte) (off int, stop error) {
	for {
		if sc.cur == nil {
			sc.cur = sc.next()
		}
		b := sc.cur
		at := len(b.recs)
		o, n, stop := decodeFrames(data[off:], b.recs[at:cap(b.recs)])
		b.recs = b.recs[:at+n]
		for i := at; i < at+n; i++ {
			if r := &b.recs[i]; r.kind == recPlan {
				if sc.failed {
					r.canonical = nil
				} else if r.verify(&sc.verify); r.plan == nil {
					sc.failed = true
				}
			}
		}
		off += o
		sc.left -= int64(o)
		if len(b.recs) < cap(b.recs) {
			return off, stop
		}
		sc.full <- b
		sc.cur = nil
	}
}

// next returns an empty block to fill: one the fold has handed back,
// a new one while fewer than pipeBlocks exist, or else the first the
// fold hands back. A block holds no more records than the bytes left
// to scan can.
func (sc *segmentScanner) next() *block {
	var b *block
	select {
	case b = <-sc.free:
	default:
		if sc.made < pipeBlocks {
			sc.made++
			b = &block{recs: make([]record, 0, max(1, min(int64(sc.block), sc.left/minFrameBytes+1)))}
		} else {
			b = <-sc.free
		}
	}
	b.recs, b.left = b.recs[:0], sc.left
	return b
}
