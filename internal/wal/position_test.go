package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkpointedLog writes a log the way a server does around one
// checkpoint, over segments of segBytes: two scheduled slots and the
// first ingest of slot 2, a checkpoint of the state those records
// fold to at the position they end, then slot 2's advance and contract
// error and two ingests of slot 3. It returns the checkpoint's position
// and the number of records after it.
func checkpointedLog(t *testing.T, dir string, segBytes int64) (Position, int) {
	t.Helper()
	c0, d0 := testPlanBytes(t, 1)
	c1, d1 := testPlanBytes(t, 2)
	before := []record{
		{kind: recIngest, slot: 0, instance: 0, hotspot: 0, video: 0, count: 1},
		{kind: recIngest, slot: 0, instance: 1, hotspot: 1, video: 3, count: 2},
		{kind: recAdvance, slot: 0},
		{kind: recPlan, slot: 0, epoch: 1, digest: d0, canonical: c0},
		{kind: recIngest, slot: 1, instance: 0, hotspot: 0, video: 2, count: 1},
		{kind: recAdvance, slot: 1},
		{kind: recPlan, slot: 1, epoch: 2, digest: d1, canonical: c1},
		{kind: recIngest, slot: 2, instance: 1, hotspot: 3, video: 1, count: 1},
	}
	after := []record{
		{kind: recAdvance, slot: 2},
		{kind: recRoundErr, slot: 2},
		{kind: recIngest, slot: 3, instance: 0, hotspot: 1, video: 1, count: 1},
		{kind: recIngest, slot: 3, instance: 1, hotspot: 2, video: 4, count: 3},
	}
	l, _, err := Open(dir, Options{Policy: PolicyAlways, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	appendAll := func(recs []record) {
		for i := range recs {
			if _, err := l.append(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll(before)
	pre := foldState(nil, before)
	cp := &Checkpoint{Slot: pre.Slot, Epoch: pre.Epoch, Plan: pre.Plan,
		Pos: l.Position(), Pending: pre.Pending, Queue: pre.Queue}
	if err := l.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	appendAll(after)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return cp.Pos, len(after)
}

// TestOpenStartsAtCheckpointPosition pins the rules of a recovery that
// starts where the checkpoint ends: it reads only the records after
// the position and recovers what reading the whole log does; bytes
// before the position are not read, so damage there changes nothing;
// and a log that no longer reaches the position is refused, naming
// the segment, rather than appended to below it.
func TestOpenStartsAtCheckpointPosition(t *testing.T) {
	const segBytes = 96 // the plan records rotate segments
	src := t.TempDir()
	pos, after := checkpointedLog(t, src, segBytes)
	if pos.Segment < 2 || pos.Offset == 0 {
		t.Fatalf("position %+v: want one inside a later segment", pos)
	}
	boot := func(ctx string) string {
		dir := filepath.Join(t.TempDir(), ctx)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		copyDir(t, src, dir)
		return dir
	}

	clean := requireOpenMatchesReference(t, boot("clean"), "clean")
	if clean.Records != after || clean.TruncatedBytes != 0 {
		t.Fatalf("scanned %d records (%d bytes truncated), want the %d after the position",
			clean.Records, clean.TruncatedBytes, after)
	}
	if clean.Slot != 3 || clean.PendingRequests != 4 || len(clean.Queue) != 0 || clean.Plan == nil || clean.Plan.Epoch != 2 {
		t.Fatalf("recovered slot %d, %d pending, queue %+v, plan %+v; want slot 3, its 4 pending, slot 2 dropped, epoch 2",
			clean.Slot, clean.PendingRequests, clean.Queue, clean.Plan)
	}

	t.Run("damage before the position is not read", func(t *testing.T) {
		segs := readSegments(t, src)
		idxs, _ := listSegments(src)
		for si, idx := range idxs {
			end := len(segs[si])
			if idx == pos.Segment {
				end = int(pos.Offset)
			} else if idx > pos.Segment {
				break
			}
			for off := 0; off < end; off++ {
				dir := boot("flip")
				mut := append([]byte(nil), segs[si]...)
				mut[off] ^= 0x41
				if err := os.WriteFile(filepath.Join(dir, segmentName(idx)), mut, 0o644); err != nil {
					t.Fatal(err)
				}
				l, st, err := Open(dir, Options{Policy: PolicyNone})
				if err != nil {
					t.Fatalf("segment %d byte %d: %v", idx, off, err)
				}
				l.Crash()
				if diff := sameRecovery(st, clean); diff != "" || st.Records != after {
					t.Fatalf("segment %d byte %d flipped: %d records, state%s", idx, off, st.Records, diff)
				}
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
			}
		}
	})

	t.Run("position's segment shorter than the offset", func(t *testing.T) {
		for _, size := range []int64{0, pos.Offset / 2, pos.Offset - 1} {
			dir := boot("short")
			if err := os.Truncate(filepath.Join(dir, segmentName(pos.Segment)), size); err != nil {
				t.Fatal(err)
			}
			_, _, err := Open(dir, Options{})
			if err == nil || !strings.Contains(err.Error(), segmentName(pos.Segment)) || !strings.Contains(err.Error(), "shorter") {
				t.Fatalf("segment cut to %d of %d bytes: Open err = %v, want a refusal naming %s",
					size, pos.Offset, err, segmentName(pos.Segment))
			}
		}
	})

	t.Run("position's segment missing", func(t *testing.T) {
		dir := boot("missing")
		if err := os.Remove(filepath.Join(dir, segmentName(pos.Segment))); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(dir, Options{})
		if err == nil || !strings.Contains(err.Error(), segmentName(pos.Segment)) || !strings.Contains(err.Error(), "missing") {
			t.Fatalf("Open err = %v, want a refusal naming %s", err, segmentName(pos.Segment))
		}
	})
}

// TestCheckpointMakesItsPositionDurable: under PolicyNone nothing
// reaches the disk until something flushes, so only WriteCheckpoint's
// own flush and fsync put the records before the position there. A
// crash right after it must leave a log that reaches the position,
// and the next boot appends after it.
func TestCheckpointMakesItsPositionDurable(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	m := must(t)
	m(l.AppendIngest(0, 0, 0, 1, 1, 1))
	m(l.AppendIngest(0, 0, 0, 2, 2, 1))
	pos := l.Position()
	if err := l.WriteCheckpoint(&Checkpoint{Pos: pos,
		Pending: []Entry{{Hotspot: 1, Video: 1, Count: 1}, {Hotspot: 2, Video: 2, Count: 1}}}); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != 2 {
		t.Errorf("durable LSN %d after the checkpoint, want 2", got)
	}
	l.Crash()

	l2, st, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatalf("boot after a crash right after the checkpoint: %v", err)
	}
	if st.PendingRequests != 2 || st.Records != 0 {
		t.Fatalf("recovered %d pending from %d records, want the checkpoint's 2 and nothing scanned", st.PendingRequests, st.Records)
	}
	if got := l2.Position(); got.Segment != pos.Segment || got.Offset != pos.Offset {
		t.Fatalf("boot appends at %+v, want the checkpoint's position %+v", got, pos)
	}
	m(l2.AppendIngest(0, 0, 0, 3, 3, 1))
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	st = requireOpenMatchesReference(t, dir, "second boot")
	if st.PendingRequests != 3 || st.Records != 1 {
		t.Fatalf("recovered %d pending from %d records, want 3 from 1", st.PendingRequests, st.Records)
	}
}

// TestReplayRecords: the count of records the next boot would scan
// starts at what recovery scanned, grows with every append and drops
// to the appends after the position at each checkpoint.
func TestReplayRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	m := must(t)
	for i := 1; i <= 3; i++ {
		m(l.AppendIngest(0, 0, 0, i, i, 1))
	}
	if got := l.ReplayRecords(); got != 3 {
		t.Fatalf("ReplayRecords = %d before any checkpoint, want 3", got)
	}
	cp := &Checkpoint{Pos: l.Position()}
	m(l.AppendAdvance(0)) // between the capture and the write
	if err := l.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if got := l.ReplayRecords(); got != 1 {
		t.Fatalf("ReplayRecords = %d after the checkpoint, want the 1 record logged after its position", got)
	}
	m(l.AppendIngest(1, 0, 0, 4, 4, 1))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, st, err := Open(dir, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st.Records != 2 || l2.ReplayRecords() != 2 {
		t.Fatalf("boot scanned %d records and counts %d to replay, want 2 and 2", st.Records, l2.ReplayRecords())
	}
	m(l2.AppendIngest(1, 0, 0, 5, 5, 1))
	if got := l2.ReplayRecords(); got != 3 {
		t.Fatalf("ReplayRecords = %d, want the 2 recovered plus 1 appended", got)
	}
}
