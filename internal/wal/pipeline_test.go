package wal

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ingests returns n ingest records tagged slot, spread over a few
// (hotspot, video) pairs.
func ingests(slot, n int) []record {
	recs := make([]record, n)
	for i := range recs {
		recs[i] = record{kind: recIngest, slot: slot, instance: i % 2, hotspot: i % 7, video: i % 11, count: 1}
	}
	return recs
}

// TestCheckpointPlanFailsWhileScanRunsAhead: the newest checkpoint is
// CRC-valid but its plan fails verification, and the log after its
// position is long enough that the scan from there is still running
// when the verdict comes — and ends at a torn tail it must not
// truncate on that checkpoint's account. Open must discard that scan
// and recover on the older checkpoint exactly as reading the whole
// log does, field for field, Records included.
func TestCheckpointPlanFailsWhileScanRunsAhead(t *testing.T) {
	const n = 20000
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: PolicyNone})
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
	var log []record
	schedule := func(slot int) {
		c, d := testPlanBytes(t, int64(slot+1))
		recs := append(ingests(slot, n), record{kind: recAdvance, slot: slot},
			record{kind: recPlan, slot: slot, epoch: int64(slot + 1), digest: d, canonical: c})
		appendAll(recs)
		log = append(log, recs...)
	}
	checkpoint := func(damagePlan bool) {
		st := foldState(nil, log)
		cp := &Checkpoint{Slot: st.Slot, Epoch: st.Epoch, Plan: st.Plan, Pos: l.Position()}
		if damagePlan {
			plan := *st.Plan
			plan.Digest++
			cp.Plan = &plan
		}
		if err := l.WriteCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	schedule(0)
	checkpoint(false)
	schedule(1)
	checkpoint(true)
	schedule(2)
	appendAll(ingests(3, n/2))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last frame.
	path := filepath.Join(dir, segmentName(1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	want, _ := referenceRecover(t, dir)
	l, got, err := Open(dir, Options{Policy: PolicyNone})
	if err != nil {
		t.Fatal(err)
	}
	l.Crash()
	requireSameRecovery(t, got, want, "newest checkpoint's plan damaged")
	if got.Records != want.Records || got.CheckpointSeq != 1 {
		t.Fatalf("recovered on checkpoint %d having folded %d records; want checkpoint 1 and %d records",
			got.CheckpointSeq, got.Records, want.Records)
	}
	if wantRecords := 2*(n+2) + n/2 - 1; got.Records != wantRecords || got.TruncatedBytes == 0 {
		t.Fatalf("folded %d records, truncated %d bytes; want %d records and the torn frame truncated",
			got.Records, got.TruncatedBytes, wantRecords)
	}
}

// TestPlanRecordFailsAtBlockBoundary puts a plan record that fails
// verification, right after one that passes, at the last record of the
// scan's first block, at the first of its second, at the second of its
// second (the passing one first) and in the middle of the second: the
// fold must stop right there, counting exactly the records before it,
// and the state must be what reading the whole log gives.
func TestPlanRecordFailsAtBlockBoundary(t *testing.T) {
	c, d := testPlanBytes(t, 1)
	for _, at := range []int{blockRecords - 1, blockRecords, blockRecords + 1, blockRecords + blockRecords/2} {
		recs := ingests(0, at-2)
		recs = append(recs, record{kind: recAdvance, slot: 0},
			record{kind: recPlan, slot: 0, epoch: 1, digest: d, canonical: c})
		recs = append(recs, record{kind: recPlan, slot: 0, epoch: 1, digest: d + 1, canonical: c})
		recs = append(recs, ingests(1, blockRecords)...)
		recs = append(recs, record{kind: recAdvance, slot: 1},
			record{kind: recPlan, slot: 1, epoch: 2, digest: d, canonical: c})
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), frames(recs), 0o644); err != nil {
			t.Fatal(err)
		}
		st := requireOpenMatchesReference(t, dir, "bad plan record at "+itoa(at))
		if st.Records != at || st.Plan == nil || st.Plan.Epoch != 1 || st.Slot != 1 || st.PendingRequests != 0 {
			t.Fatalf("bad plan record at %d: folded %d records, slot %d, %d pending; want %d records, epoch 1, slot 1, none pending",
				at, st.Records, st.Slot, st.PendingRequests, at)
		}
	}
}

// TestFailedOpenLeavesNoGoroutine: Open starts goroutines — the fold
// beside the scan, the checkpoint's plan verification beside both —
// and joins them before it returns, on an error too. A refusal for a
// missing position segment (after the plan's verification started) or
// for a retired ingest record (mid-scan) must leave the goroutine
// count where it was.
func TestFailedOpenLeavesNoGoroutine(t *testing.T) {
	missing := t.TempDir()
	pos, _ := checkpointedLog(t, missing, 64)
	if err := os.Remove(filepath.Join(missing, segmentName(pos.Segment))); err != nil {
		t.Fatal(err)
	}
	retired := t.TempDir()
	seg := append(frames(ingests(0, 3*blockRecords)), retiredIngestFrame()...)
	if err := os.WriteFile(filepath.Join(retired, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, dir, want string }{
		{"missing position segment", missing, "missing"},
		{"retired ingest record", retired, "retired format"},
	} {
		before := runtime.NumGoroutine()
		_, _, err := Open(tc.dir, Options{Policy: PolicyNone})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Open err = %v, want a refusal mentioning %q", tc.name, err, tc.want)
		}
		// A joined goroutine may still be returning: give it a moment.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if after > before {
			t.Fatalf("%s: %d goroutines before Open, %d after", tc.name, before, after)
		}
	}
}
