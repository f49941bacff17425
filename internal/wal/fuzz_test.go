package wal

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzWALReplay throws arbitrary bytes at the full recovery path, as a
// segment (seg) replayed onto an optional checkpoint file (ckpt):
// segment scanning, record decoding, checkpoint unmarshalling, and the
// fold must never panic, the valid prefix must be stable (re-scanning
// it yields the same records), the fold must equal the two-pass oracle
// field by field, and any plan that reaches a State must pass full
// verification. A checkpoint is also placed inside the stream at every
// record boundary, as a server captures one, and folding only the
// records after it onto it must recover what folding them all does.
func FuzzWALReplay(f *testing.F) {
	// Seed with a well-formed segment and checkpoint so the fuzzer
	// starts from structurally valid corpora.
	seedCkpt := marshalCheckpoint(&Checkpoint{
		Slot:    2,
		Epoch:   3,
		Pending: []Entry{{Hotspot: 1, Video: 2, Count: 3}},
		Queue:   []QueuedSlot{{Slot: 1, Requests: 2, Entries: []Entry{{Hotspot: 0, Video: 0, Count: 2}}}},
	})
	f.Add(frames([]record{
		{kind: recIngest, slot: 0, instance: 1, hotspot: 2, video: 3, count: 4},
		{kind: recAdvance, slot: 0},
		{kind: recPlan, slot: 0, epoch: 1, digest: 42, canonical: []byte("plan v1\n")},
		{kind: recRoundErr, slot: 1},
	}), []byte{})
	f.Add([]byte{}, seedCkpt)
	f.Add([]byte{}, []byte{})
	f.Add([]byte{}, []byte("WALCKPT1garbage"))
	// Two streams the fold could plausibly get wrong: a plan record
	// failing verification mid-log, and ingests out of slot order on
	// top of a checkpoint.
	f.Add(frames(badPlanMidLog(f)), []byte{})
	outOfOrder, outOfOrderCkpt := outOfOrderIngests(f)
	f.Add(frames(outOfOrder), marshalCheckpoint(outOfOrderCkpt))
	// And the one it did get wrong: a checkpoint holding pending demand
	// whose slot the log then advances and plans.
	midSlot, midSlotCkpt := pendingThenAdvancePlan(f)
	f.Add(frames(midSlot), marshalCheckpoint(midSlotCkpt))
	// And a slot coalesced into the next, planned under the newer
	// number only.
	f.Add(frames(coalescedSlot(f)), []byte{})
	// And a log an older build wrote: its valid prefix ends at the
	// first ingest record of the retired format.
	f.Add(append(frames([]record{{kind: recAdvance, slot: 0}}), retiredIngestFrame()...), []byte{})

	f.Fuzz(func(t *testing.T, seg, ckpt []byte) {
		recs, validLen := scanRecords(seg)
		if validLen < 0 || validLen > len(seg) {
			t.Fatalf("validLen %d out of range [0, %d]", validLen, len(seg))
		}
		again, againLen := scanRecords(seg[:validLen])
		if againLen != validLen || len(again) != len(recs) {
			t.Fatalf("valid prefix not stable: %d/%d records, %d/%d bytes",
				len(again), len(recs), againLen, validLen)
		}

		st := requireFoldMatchesReference(t, nil, recs, "no checkpoint")
		requireCutMatchesWhole(t, recs)
		for _, q := range st.Queue {
			if len(q.Entries) == 0 {
				t.Fatal("the fold surfaced an empty queued slot")
			}
		}

		if cp, err := unmarshalCheckpoint(ckpt); err == nil {
			// A checkpoint that decodes must re-marshal into bytes that
			// decode to the same checkpoint (modulo the CRC frame), and
			// must be safe to replay records onto.
			st2 := requireFoldMatchesReference(t, cp, recs, "on the checkpoint")
			if st2.Plan != nil && cp.Plan == nil && st.Plan == nil {
				t.Fatal("plan appeared from nowhere")
			}
			round := marshalCheckpoint(cp)
			cp2, err := unmarshalCheckpoint(round)
			if err != nil {
				t.Fatalf("re-marshalled checkpoint does not decode: %v", err)
			}
			if !bytes.Equal(marshalCheckpoint(cp2), round) {
				t.Fatal("checkpoint marshalling not a fixed point")
			}
		}
	})
}

// requireCutMatchesWhole places a checkpoint at every record boundary
// of recs that a server could capture one at — before any plan record
// failing verification, where a fold stops — holding the state the
// records before it fold to, and requires the fold of the records
// after it onto that checkpoint to recover what the fold of the whole
// stream does. Both sides keep the server's order: the frontends
// accumulate only for the open slot, so no ingest before the cut is
// tagged with a later one, and none after it with a slot the
// checkpoint had closed.
func requireCutMatchesWhole(t *testing.T, recs []record) {
	t.Helper()
	for k := 0; k <= len(recs); k++ {
		// Ingests do not move the slot counter or stop the fold, so the
		// open slot is the prefix's with or without them.
		open := foldState(nil, recs[:k])
		var prefix []record
		for _, r := range recs[:k] {
			if r.kind != recIngest || r.slot <= open.Slot {
				prefix = append(prefix, r)
			}
		}
		rp := newReplay(nil)
		for i := range prefix {
			rp.apply(&prefix[i])
		}
		if rp.stopped {
			return
		}
		pre := rp.finish()
		cp := &Checkpoint{Slot: pre.Slot, Epoch: pre.Epoch, Plan: pre.Plan, Pending: pre.Pending, Queue: pre.Queue}
		var suffix []record
		for _, r := range recs[k:] {
			if r.kind != recIngest || r.slot >= cp.Slot {
				suffix = append(suffix, r)
			}
		}
		whole := append(slices.Clip(prefix), suffix...)
		if diff := sameRecovery(foldState(cp, suffix), foldState(nil, whole)); diff != "" {
			t.Fatalf("checkpoint after record %d of %d: the suffix folds onto it to another state than the whole stream:%s", k, len(recs), diff)
		}
	}
}
