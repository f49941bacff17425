package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
)

// Checkpoints compact the log: one file captures the full durable
// state at a slot boundary together with the log position it covers,
// so recovery only replays the WAL suffix written after that position.
// The file is
//
//	"WALCKPT1" | u32le length | u32le crc32c(body) | body
//
// with the body a uvarint-encoded Checkpoint behind its version
// (checkpointVersion). WriteCheckpoint first makes the log durable
// through the position, then writes the file to a temp name, fsyncs
// it, renames it into place and fsyncs the directory — a checkpoint is
// either entirely durable, with every record it skips on disk, or
// invisible. Recovery loads the newest checkpoint that passes CRC,
// strict decoding, and plan verification, falling back to older ones
// (and then to an empty base state scanned from segment 1, refused
// once segment GC has collected it) when the newest is damaged; a body
// of another version is not damage, and Open refuses it.

var ckptMagic = []byte("WALCKPT1")

// Entry is one (hotspot, video, count) demand increment — the unit of
// pending demand in checkpoints and recovered state.
type Entry struct {
	Hotspot int
	Video   int
	Count   int64
}

// PlanState is a durable plan: the canonical bytes plus the identity
// the serving tier advertises. Recovery verifies it exactly like the
// plan fan-out does (core.VerifyCanonical: digest check, strict
// canonical decode) before handing it to the server, and hands the
// decoded plan along so the server installs it without a second pass.
type PlanState struct {
	Slot      int
	Epoch     int64
	Digest    uint64
	Canonical []byte
	// Decoded is the plan recovery's verification decoded from
	// Canonical; nil on a plan recovery did not produce (the server's
	// own, captured for a checkpoint). It is not written to disk.
	Decoded *core.DecodedPlan
}

// QueuedSlot is one drained-but-unscheduled slot snapshot: demand
// whose slot boundary is durable but whose plan is not yet. Recovery
// re-enqueues these for the recompute worker, which schedules them
// deterministically.
type QueuedSlot struct {
	Slot     int
	Requests int64
	Entries  []Entry
}

// Position is a place in the log: a byte offset into one segment. A
// checkpoint's is the log's append position at capture.
type Position struct {
	Segment uint64
	Offset  int64
	// lsn is the LSN of the last record the Log that returned the
	// position had appended before it; it is not written to disk.
	lsn uint64
}

// Checkpoint is the slot-boundary state capture.
type Checkpoint struct {
	// Seq orders checkpoint files; assigned by WriteCheckpoint.
	Seq uint64
	// Slot is the slot counter at capture (the next slot to drain).
	Slot int
	// Epoch is the last assigned plan epoch.
	Epoch int64
	// Plan is the serving plan at capture (nil before the first plan).
	Plan *PlanState
	// Pos is the log's append position (Log.Position), read in the same
	// hold as the state: every record before it is reflected in this
	// checkpoint's state, and none after it. Recovery scans from it.
	Pos Position
	// Pending is the accepted-but-not-yet-drained demand. It is slot
	// Slot's: recovery queues it with that slot once the log shows the
	// slot's advance, and drops it once the log holds the slot's plan.
	Pending []Entry
	// Queue is the drained-but-unscheduled slot snapshots, slot order.
	Queue []QueuedSlot
}

// checkpointVersion is the body version this build writes and reads.
// Version 1 kept one ingest cursor per frontend; version 2 had no log
// position; version 3 also kept the last number of a tier-wide ingest
// sequence, which ingest records carried.
const checkpointVersion = 4

// errCheckpointVersion marks a checkpoint that decoded as far as its
// version: it is not damage but another format, which Open refuses.
var errCheckpointVersion = errors.New("wal: checkpoint: unsupported version")

// encode serialises the checkpoint body (no magic or frame).
func (c *Checkpoint) encode(b []byte) []byte {
	b = binary.AppendUvarint(b, checkpointVersion)
	b = binary.AppendUvarint(b, c.Seq)
	b = binary.AppendUvarint(b, uint64(c.Slot))
	b = binary.AppendUvarint(b, uint64(c.Epoch))
	if c.Plan == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(c.Plan.Slot))
		b = binary.AppendUvarint(b, uint64(c.Plan.Epoch))
		b = binary.LittleEndian.AppendUint64(b, c.Plan.Digest)
		b = binary.AppendUvarint(b, uint64(len(c.Plan.Canonical)))
		b = append(b, c.Plan.Canonical...)
	}
	b = binary.AppendUvarint(b, c.Pos.Segment)
	b = binary.AppendUvarint(b, uint64(c.Pos.Offset))
	b = appendEntries(b, c.Pending)
	b = binary.AppendUvarint(b, uint64(len(c.Queue)))
	for _, q := range c.Queue {
		b = binary.AppendUvarint(b, uint64(q.Slot))
		b = binary.AppendUvarint(b, uint64(q.Requests))
		b = appendEntries(b, q.Entries)
	}
	return b
}

func appendEntries(b []byte, es []Entry) []byte {
	b = binary.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = binary.AppendUvarint(b, uint64(e.Hotspot))
		b = binary.AppendUvarint(b, uint64(e.Video))
		b = binary.AppendUvarint(b, uint64(e.Count))
	}
	return b
}

func decodeEntries(b []byte) ([]Entry, []byte, error) {
	n, b, ok := uvarint(b)
	if !ok {
		return nil, nil, fmt.Errorf("wal: checkpoint: bad entry count")
	}
	// Every entry occupies at least 3 bytes; an implausible count is
	// corruption, not an allocation request.
	if n > uint64(len(b))/3+1 {
		return nil, nil, fmt.Errorf("wal: checkpoint: entry count %d exceeds body", n)
	}
	es := make([]Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		var h, v, cnt uint64
		if h, b, ok = uvarintBounded(b, maxEntityValue); !ok {
			return nil, nil, fmt.Errorf("wal: checkpoint: bad entry hotspot")
		}
		if v, b, ok = uvarintBounded(b, maxEntityValue); !ok {
			return nil, nil, fmt.Errorf("wal: checkpoint: bad entry video")
		}
		if cnt, b, ok = uvarintBounded(b, maxCountValue); !ok || cnt == 0 {
			return nil, nil, fmt.Errorf("wal: checkpoint: bad entry count")
		}
		es = append(es, Entry{Hotspot: int(h), Video: int(v), Count: int64(cnt)})
	}
	return es, b, nil
}

// decodeCheckpoint strictly decodes a checkpoint body.
func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	ver, b, ok := uvarint(b)
	if !ok {
		return nil, fmt.Errorf("wal: checkpoint: bad version")
	}
	if ver != checkpointVersion {
		return nil, fmt.Errorf("%w %d (this build reads %d)", errCheckpointVersion, ver, checkpointVersion)
	}
	c := &Checkpoint{}
	var v uint64
	if c.Seq, b, ok = uvarint(b); !ok {
		return nil, fmt.Errorf("wal: checkpoint: bad seq")
	}
	if v, b, ok = uvarintBounded(b, maxSlotValue); !ok {
		return nil, fmt.Errorf("wal: checkpoint: bad slot")
	}
	c.Slot = int(v)
	if v, b, ok = uvarintBounded(b, 1<<62); !ok {
		return nil, fmt.Errorf("wal: checkpoint: bad epoch")
	}
	c.Epoch = int64(v)
	if len(b) < 1 {
		return nil, fmt.Errorf("wal: checkpoint: truncated plan flag")
	}
	hasPlan := b[0]
	b = b[1:]
	switch hasPlan {
	case 0:
	case 1:
		p := &PlanState{}
		if v, b, ok = uvarintBounded(b, maxSlotValue); !ok {
			return nil, fmt.Errorf("wal: checkpoint: bad plan slot")
		}
		p.Slot = int(v)
		if v, b, ok = uvarintBounded(b, 1<<62); !ok {
			return nil, fmt.Errorf("wal: checkpoint: bad plan epoch")
		}
		p.Epoch = int64(v)
		if len(b) < 8 {
			return nil, fmt.Errorf("wal: checkpoint: truncated plan digest")
		}
		p.Digest = binary.LittleEndian.Uint64(b[:8])
		b = b[8:]
		// Bound against the bytes remaining AFTER the length varint —
		// see the matching comment in decodeRecord.
		if v, b, ok = uvarint(b); !ok || v > uint64(len(b)) {
			return nil, fmt.Errorf("wal: checkpoint: bad plan length")
		}
		p.Canonical = append([]byte(nil), b[:v]...)
		b = b[v:]
		c.Plan = p
	default:
		return nil, fmt.Errorf("wal: checkpoint: bad plan flag %d", hasPlan)
	}
	if c.Pos.Segment, b, ok = uvarint(b); !ok {
		return nil, fmt.Errorf("wal: checkpoint: bad position segment")
	}
	if v, b, ok = uvarintBounded(b, 1<<62); !ok {
		return nil, fmt.Errorf("wal: checkpoint: bad position offset")
	}
	c.Pos.Offset = int64(v)
	var n uint64
	var err error
	if c.Pending, b, err = decodeEntries(b); err != nil {
		return nil, err
	}
	if n, b, ok = uvarintBounded(b, uint64(len(b))+1); !ok {
		return nil, fmt.Errorf("wal: checkpoint: bad queue count")
	}
	for i := uint64(0); i < n; i++ {
		var q QueuedSlot
		if v, b, ok = uvarintBounded(b, maxSlotValue); !ok {
			return nil, fmt.Errorf("wal: checkpoint: bad queue slot")
		}
		q.Slot = int(v)
		if v, b, ok = uvarintBounded(b, maxCountValue); !ok {
			return nil, fmt.Errorf("wal: checkpoint: bad queue requests")
		}
		q.Requests = int64(v)
		if q.Entries, b, err = decodeEntries(b); err != nil {
			return nil, err
		}
		c.Queue = append(c.Queue, q)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wal: checkpoint: %d trailing bytes", len(b))
	}
	return c, nil
}

// marshalCheckpoint renders the full file contents.
func marshalCheckpoint(c *Checkpoint) []byte {
	body := c.encode(nil)
	out := make([]byte, 0, len(ckptMagic)+frameHeaderBytes+len(body))
	out = append(out, ckptMagic...)
	return appendFrame(out, body)
}

// unmarshalCheckpoint parses and validates a checkpoint file's bytes
// (magic, frame, CRC, strict decode). Plan verification is the
// caller's concern — loadCheckpoints layers it on.
func unmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+frameHeaderBytes {
		return nil, fmt.Errorf("wal: checkpoint: short file")
	}
	if string(data[:len(ckptMagic)]) != string(ckptMagic) {
		return nil, fmt.Errorf("wal: checkpoint: bad magic")
	}
	rest := data[len(ckptMagic):]
	n := binary.LittleEndian.Uint32(rest[0:4])
	if n > maxRecordBytes || int(n) != len(rest)-frameHeaderBytes {
		return nil, fmt.Errorf("wal: checkpoint: bad body length")
	}
	body := rest[frameHeaderBytes:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
		return nil, fmt.Errorf("wal: checkpoint: CRC mismatch")
	}
	return decodeCheckpoint(body)
}

// checkpointName renders the file name for a checkpoint sequence.
func checkpointName(seq uint64) string {
	return fmt.Sprintf("checkpoint-%016d.ckpt", seq)
}

// listCheckpoints returns the checkpoint sequence numbers present in
// dir, descending (newest first).
func listCheckpoints(dir string) ([]uint64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, de := range des {
		var seq uint64
		if n, err := fmt.Sscanf(de.Name(), "checkpoint-%d.ckpt", &seq); err == nil && n == 1 &&
			de.Name() == checkpointName(seq) {
			seqs = append(seqs, seq)
		}
	}
	slices.SortFunc(seqs, func(a, b uint64) int { return cmp.Compare(b, a) })
	return seqs, nil
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileAtomic writes data to path via a temp file + fsync +
// rename + directory fsync.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return syncDir(dir)
}
