package wal

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
)

// verifyPlanBytes reports whether durable plan bytes pass the serving
// tier's install gate (core.VerifyCanonical), as recovery requires.
func verifyPlanBytes(canonical []byte, digest uint64) bool {
	_, err := core.VerifyCanonical(canonical, digest)
	return err == nil
}

// entryKey is the (hotspot, video) pair the oracle merges demand under.
type entryKey struct{ Hotspot, Video int }

// sortedEntries renders a merged demand map as entries in (hotspot,
// video) order, by a comparison sort: the oracle's own fold.
func sortedEntries(m map[entryKey]int64) []Entry {
	out := make([]Entry, 0, len(m))
	for k, n := range m {
		out = append(out, Entry{Hotspot: k.Hotspot, Video: k.Video, Count: n})
	}
	slices.SortFunc(out, func(a, b Entry) int {
		if c := cmp.Compare(a.Hotspot, b.Hotspot); c != 0 {
			return c
		}
		return cmp.Compare(a.Video, b.Video)
	})
	return out
}

// merged folds entries the oracle's way (a map, then sortedEntries):
// the form the tests compare recovered demand in, which the fold hands
// back unmerged.
func merged(es []Entry) []Entry {
	m := make(map[entryKey]int64)
	for _, e := range es {
		m[entryKey{e.Hotspot, e.Video}] += e.Count
	}
	return sortedEntries(m)
}

// mergedQueue is qs with every slot's entries merged.
func mergedQueue(qs []QueuedSlot) []QueuedSlot {
	var out []QueuedSlot
	for _, q := range qs {
		out = append(out, QueuedSlot{Slot: q.Slot, Requests: q.Requests, Entries: merged(q.Entries)})
	}
	return out
}

// referenceState is the independent oracle the fold (replay) is held
// to: recovery as it was before the fold, kept verbatim but for the
// tagging of Checkpoint.Pending, the outcome high-water mark (both
// marked below) and the ingest cursors it no longer has — the whole
// log as a slice, a pass that cuts it at the first plan record failing
// verification, a pass over the survivors, a stable sort of the
// ingests into (slot, instance) order, then the merge. It
// deterministically reconstructs server state from a base checkpoint
// (nil for none) plus the decoded WAL records after its position, in
// log order.
func referenceState(ckpt *Checkpoint, recs []record) *State {
	st := &State{}
	if ckpt != nil {
		st.Slot = ckpt.Slot
		st.Epoch = ckpt.Epoch
		st.Plan = ckpt.Plan
		st.CheckpointSeq = ckpt.Seq
	}

	// A plan record whose bytes fail verification is corruption that
	// slipped past the CRC; trusting anything after it would violate
	// the durable-prefix contract, so replay stops there.
	for i := range recs {
		if recs[i].kind == recPlan && !verifyPlanBytes(recs[i].canonical, recs[i].digest) {
			recs = recs[:i]
			break
		}
	}
	st.Records = len(recs)

	// First pass, log order: the outcome high-water mark, the newest
	// plan, and the advance high-water mark. The outcome mark is the
	// second departure from the pre-fold replay, which kept the set of
	// slots with an outcome: the server's single worker drains in FIFO
	// order, so a durable plan or contract error for slot s means every
	// slot at or below s is consumed — one coalesced into a newer slot,
	// with no outcome record of its own, included.
	maxAdv := -1
	consumed := -1
	var ingests []record
	for _, r := range recs {
		switch r.kind {
		case recAdvance:
			if r.slot > maxAdv {
				maxAdv = r.slot
			}
		case recPlan:
			consumed = max(consumed, r.slot)
			if st.Plan == nil || r.epoch > st.Plan.Epoch {
				st.Plan = &PlanState{Slot: r.slot, Epoch: r.epoch, Digest: r.digest, Canonical: r.canonical}
			}
			if r.epoch > st.Epoch {
				st.Epoch = r.epoch
			}
		case recRoundErr:
			consumed = max(consumed, r.slot)
		case recIngest:
			ingests = append(ingests, r)
		}
	}
	if maxAdv+1 > st.Slot {
		st.Slot = maxAdv + 1
	}
	if consumed+1 > st.Slot {
		st.Slot = consumed + 1
	}
	// drainedBound: slots strictly below it have durably passed their
	// boundary; their surviving demand belongs to the queue, everything
	// at or above it is still pending.
	drainedBound := maxAdv + 1
	if ckpt != nil && ckpt.Slot > drainedBound {
		drainedBound = ckpt.Slot
	}

	// The first departure from the pre-fold replay: what the
	// checkpoint found in the frontends is demand of the slot open at the
	// capture, so it enters as ingests tagged ckpt.Slot and meets the
	// outcome / drainedBound rules below, where the old replay added it
	// to pending whatever the log went on to show.
	if ckpt != nil {
		for _, e := range ckpt.Pending {
			ingests = append(ingests, record{kind: recIngest, slot: ckpt.Slot, hotspot: e.Hotspot, video: e.Video, count: e.Count})
		}
	}

	// Deterministic replay order. Demand counts commute, so the merge
	// result is order-independent — the sort pins the record-for-record
	// reconstruction order regardless of how concurrent appends from
	// different frontends interleaved in the log.
	sort.SliceStable(ingests, func(i, j int) bool {
		a, b := ingests[i], ingests[j]
		if a.slot != b.slot {
			return a.slot < b.slot
		}
		return a.instance < b.instance
	})

	pending := make(map[entryKey]int64)
	queued := make(map[int]map[entryKey]int64)
	queuedReqs := make(map[int]int64)
	if ckpt != nil {
		for _, q := range ckpt.Queue {
			if q.Slot <= consumed {
				continue // its plan (or contract error) became durable after the checkpoint
			}
			m := queued[q.Slot]
			if m == nil {
				m = make(map[entryKey]int64)
				queued[q.Slot] = m
			}
			for _, e := range q.Entries {
				m[entryKey{e.Hotspot, e.Video}] += e.Count
			}
			queuedReqs[q.Slot] += q.Requests
		}
	}
	for _, r := range ingests {
		if r.slot <= consumed {
			continue // consumed by a durable plan
		}
		if r.slot < drainedBound {
			m := queued[r.slot]
			if m == nil {
				m = make(map[entryKey]int64)
				queued[r.slot] = m
			}
			m[entryKey{r.hotspot, r.video}] += r.count
			queuedReqs[r.slot] += r.count
		} else {
			pending[entryKey{r.hotspot, r.video}] += r.count
			st.PendingRequests += r.count
		}
	}

	st.Pending = sortedEntries(pending)
	slots := make([]int, 0, len(queued))
	for s := range queued {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	for _, s := range slots {
		es := sortedEntries(queued[s])
		if len(es) == 0 {
			continue
		}
		st.Queue = append(st.Queue, QueuedSlot{Slot: s, Requests: queuedReqs[s], Entries: es})
	}
	return st
}

// scanRecords collects data's longest valid record prefix for the
// oracle, plan bytes copied out of data, and returns the byte length of
// that prefix — everything after it is a torn tail or corruption.
func scanRecords(data []byte) (recs []record, validLen int) {
	validLen, _ = scanFrames(data, new(record), func(r *record) {
		rec := *r
		rec.canonical = bytes.Clone(r.canonical)
		recs = append(recs, rec)
	})
	return recs, validLen
}

// foldState runs recovery's fold over recs, as Open does over the
// records its scan decodes.
func foldState(ckpt *Checkpoint, recs []record) *State {
	rp := newReplay(ckpt)
	for i := range recs {
		rp.apply(&recs[i])
	}
	return rp.finish()
}

// requireFoldMatchesReference holds the fold to the oracle on one
// (checkpoint, record stream) input and returns the fold's State.
func requireFoldMatchesReference(t *testing.T, ckpt *Checkpoint, recs []record, ctx string) *State {
	t.Helper()
	st := foldState(ckpt, recs)
	requireStateEqual(t, st, referenceState(ckpt, recs), ctx)
	return st
}

// referenceRecover is the oracle Open is held to: recovery that reads
// the whole log. It loads the newest valid checkpoint, then reads every
// retained segment whole from byte 0 up to the first invalid frame —
// whose segment's rest and every later segment count as truncated (but
// stay on disk) — and folds by replay each record whose frame starts at
// or after the checkpoint's position, the earlier ones dropped by their
// offset and counted in absorbed. It reads everything Open skips and
// finds the cut without Open's seek; on a log whose checkpoint cuts it
// exactly, skipping must not change the state.
func referenceRecover(tb testing.TB, dir string) (st *State, absorbed int) {
	tb.Helper()
	ckpt, _, verify, err := loadCheckpoints(dir)
	if err != nil {
		tb.Fatalf("reference: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		tb.Fatalf("reference: %v", err)
	}
	var cut Position
	if ckpt != nil {
		cut = ckpt.Pos
	}
	rp := newReplay(ckpt)
	var truncated int64
	for i, idx := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(idx)))
		if err != nil {
			tb.Fatalf("reference: %v", err)
		}
		start := 0 // where the frame being visited starts
		validLen, _ := scanFrames(data, new(record), func(r *record) {
			at := start
			start += frameHeaderBytes + int(binary.LittleEndian.Uint32(data[at:]))
			if idx > cut.Segment || idx == cut.Segment && int64(at) >= cut.Offset {
				rp.apply(r)
			} else {
				absorbed++
			}
		})
		if validLen == len(data) {
			continue
		}
		truncated += int64(len(data) - validLen)
		for _, later := range segs[i+1:] {
			if fi, err := os.Stat(filepath.Join(dir, segmentName(later))); err == nil {
				truncated += fi.Size()
			}
		}
		break
	}
	st = rp.finish()
	st.TruncatedBytes = truncated
	st.PlanVerify += verify
	return st, absorbed
}

// sameRecovery reports how got differs from want field for field —
// "" when it does not — except in what reading less changes: Records,
// Elapsed and PlanVerify. A plan is compared by its durable
// fields, an empty demand list equals a nil one.
func sameRecovery(got, want *State) string {
	type planCore struct {
		Slot      int
		Epoch     int64
		Digest    uint64
		Canonical string
		Decoded   bool
	}
	type recovery struct {
		Slot            int
		Epoch           int64
		Plan            *planCore
		Pending         []Entry
		PendingRequests int64
		Queue           []QueuedSlot
		CheckpointSeq   uint64
		TruncatedBytes  int64
	}
	project := func(st *State) recovery {
		r := recovery{
			Slot: st.Slot, Epoch: st.Epoch, Pending: st.Pending, PendingRequests: st.PendingRequests,
			Queue: st.Queue, CheckpointSeq: st.CheckpointSeq, TruncatedBytes: st.TruncatedBytes,
		}
		if len(r.Pending) == 0 {
			r.Pending = nil
		}
		if p := st.Plan; p != nil {
			r.Plan = &planCore{p.Slot, p.Epoch, p.Digest, string(p.Canonical), p.Decoded != nil}
		}
		return r
	}
	g, w := project(got), project(want)
	if reflect.DeepEqual(g, w) {
		return ""
	}
	return fmt.Sprintf("\n got: %+v\nwant: %+v", g, w)
}

// requireOpenMatchesReference boots dir with Open and requires the
// State it recovers to be referenceRecover's on the same bytes, read
// before Open may truncate them, having scanned no more records. The
// log is closed again; the State is returned.
func requireOpenMatchesReference(t testing.TB, dir, ctx string) *State {
	t.Helper()
	want, _ := referenceRecover(t, dir)
	l, st, err := Open(dir, Options{Policy: PolicyNone})
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	l.Crash()
	requireSameRecovery(t, st, want, ctx)
	return st
}

// requireSameRecovery requires got to be want, referenceRecover's State
// on the same log bytes, as sameRecovery compares them, having scanned
// no more records.
func requireSameRecovery(t testing.TB, got, want *State, ctx string) {
	t.Helper()
	if diff := sameRecovery(got, want); diff != "" {
		t.Fatalf("%s: recovered another state than reading the whole log:%s", ctx, diff)
	}
	if got.Records > want.Records {
		t.Fatalf("%s: scanned %d records, reading the whole log %d", ctx, got.Records, want.Records)
	}
}

// frames renders recs as one segment's bytes.
func frames(recs []record) []byte {
	var seg []byte
	for i := range recs {
		seg = appendFrame(seg, recs[i].encode(nil))
	}
	return seg
}

// badPlanMidLog is a log whose second plan record passes the CRC but
// fails verification (its digest is not its bytes'): the durable
// prefix ends right before it, so none of the four records after it
// may leave a trace.
func badPlanMidLog(t testing.TB) []record {
	c0, d0 := testPlanBytes(t, 1)
	c1, d1 := testPlanBytes(t, 2)
	return []record{
		{kind: recIngest, slot: 0, instance: 0, hotspot: 1, video: 1, count: 2},
		{kind: recAdvance, slot: 0},
		{kind: recPlan, slot: 0, epoch: 1, digest: d0, canonical: c0},
		{kind: recIngest, slot: 1, instance: 0, hotspot: 2, video: 2, count: 1},
		{kind: recAdvance, slot: 1},
		{kind: recPlan, slot: 1, epoch: 2, digest: d1 + 1, canonical: c1},
		{kind: recIngest, slot: 2, instance: 0, hotspot: 3, video: 3, count: 5},
		{kind: recIngest, slot: 2, instance: 7, hotspot: 3, video: 4, count: 5},
		{kind: recAdvance, slot: 2},
		{kind: recPlan, slot: 2, epoch: 3, digest: d1, canonical: c1},
	}
}

// outOfOrderIngests is a checkpoint plus a suffix that respects none of
// the orders a live server writes in: ingests for slot 1 after slot 1's
// plan, one for slot 0 from another frontend at the end, the same
// (hotspot, video) logged again and again, slot tags interleaved, and
// demand for a slot the checkpoint still queues.
func outOfOrderIngests(t testing.TB) ([]record, *Checkpoint) {
	c1, d1 := testPlanBytes(t, 4)
	ckpt := &Checkpoint{
		Seq:     3,
		Slot:    3,
		Epoch:   3,
		Pending: []Entry{{Hotspot: 0, Video: 0, Count: 2}, {Hotspot: 5, Video: 1, Count: 1}},
		Queue: []QueuedSlot{
			{Slot: 1, Requests: 3, Entries: []Entry{{Hotspot: 1, Video: 1, Count: 3}}},
			{Slot: 2, Requests: 1, Entries: []Entry{{Hotspot: 2, Video: 2, Count: 1}}},
		},
	}
	return []record{
		{kind: recIngest, slot: 3, instance: 0, hotspot: 0, video: 0, count: 1},
		{kind: recIngest, slot: 2, instance: 1, hotspot: 2, video: 2, count: 2},
		{kind: recIngest, slot: 3, instance: 0, hotspot: 9, video: 9, count: 9},
		{kind: recIngest, slot: 3, instance: 0, hotspot: 0, video: 0, count: 1},
		{kind: recPlan, slot: 1, epoch: 4, digest: d1, canonical: c1},
		{kind: recIngest, slot: 1, instance: 1, hotspot: 1, video: 1, count: 1}, // after its slot's plan
		{kind: recIngest, slot: 3, instance: 0, hotspot: 0, video: 0, count: 1}, // the same key a third time
		{kind: recIngest, slot: 4, instance: 2, hotspot: 4, video: 4, count: 3},
		{kind: recAdvance, slot: 3},
		{kind: recIngest, slot: 3, instance: 1, hotspot: 5, video: 1, count: 1},
		{kind: recIngest, slot: 0, instance: 2, hotspot: 6, video: 6, count: 6}, // long consumed
	}, ckpt
}

// pendingThenAdvancePlan is a checkpoint captured mid-slot — slot 2
// open with demand already in the frontends, as any timer-driven tier
// checkpoints — and the log after its position, which goes on to
// finish that slot: one more ingest for slot 2, its advance, the next
// slot's first ingest, slot 2's plan.
func pendingThenAdvancePlan(t testing.TB) ([]record, *Checkpoint) {
	c, d := testPlanBytes(t, 3)
	ckpt := &Checkpoint{
		Seq:     1,
		Slot:    2,
		Epoch:   2,
		Pending: []Entry{{Hotspot: 1, Video: 1, Count: 2}, {Hotspot: 3, Video: 0, Count: 1}},
	}
	return []record{
		{kind: recIngest, slot: 2, instance: 0, hotspot: 1, video: 1, count: 1},
		{kind: recAdvance, slot: 2},
		{kind: recIngest, slot: 3, instance: 0, hotspot: 7, video: 7, count: 4},
		{kind: recPlan, slot: 2, epoch: 3, digest: d, canonical: c},
	}, ckpt
}

// coalescedSlot is the log of a lagging worker's coalesce: slot 3's
// demand merged into slot 4's snapshot, which is scheduled as slot 4,
// so slot 3 has an advance but no outcome record; then slot 5 opens.
func coalescedSlot(t testing.TB) []record {
	c, d := testPlanBytes(t, 1)
	return []record{
		{kind: recIngest, slot: 3, instance: 0, hotspot: 1, video: 1, count: 2},
		{kind: recAdvance, slot: 3},
		{kind: recIngest, slot: 4, instance: 0, hotspot: 1, video: 1, count: 1},
		{kind: recAdvance, slot: 4},
		{kind: recIngest, slot: 5, instance: 0, hotspot: 2, video: 2, count: 1},
		{kind: recPlan, slot: 4, epoch: 1, digest: d, canonical: c},
	}
}

// TestFoldAdversarialStreams pins, on the seeded streams, what the
// fuzz target only compares: the fold equals the oracle, and the values
// both give are the ones the durable-prefix contract names.
func TestFoldAdversarialStreams(t *testing.T) {
	t.Run("plan record failing verification mid-log", func(t *testing.T) {
		recs := badPlanMidLog(t)
		st := requireFoldMatchesReference(t, nil, recs, "bad plan")
		if st.Records != 5 {
			t.Errorf("replayed %d records, want the 5 before the bad plan", st.Records)
		}
		if st.Plan == nil || st.Plan.Epoch != 1 || st.Epoch != 1 {
			t.Errorf("plan %+v epoch %d, want the first plan (epoch 1)", st.Plan, st.Epoch)
		}
		if st.Slot != 2 || len(st.Pending) != 0 {
			t.Errorf("slot %d pending %+v, want slot 2 and nothing pending", st.Slot, st.Pending)
		}
		wantQueue := []QueuedSlot{{Slot: 1, Requests: 1, Entries: []Entry{{Hotspot: 2, Video: 2, Count: 1}}}}
		if !reflect.DeepEqual(st.Queue, wantQueue) {
			t.Errorf("queue %+v, want %+v", st.Queue, wantQueue)
		}
		// Every prefix of the stream, so the cut is right wherever the
		// log happens to end.
		for n := range recs {
			requireFoldMatchesReference(t, nil, recs[:n], "bad plan, prefix "+itoa(n))
		}
	})
	t.Run("ingests out of slot and sequence order on a checkpoint", func(t *testing.T) {
		recs, ckpt := outOfOrderIngests(t)
		st := requireFoldMatchesReference(t, ckpt, recs, "out of order")
		if st.Records != len(recs) {
			t.Errorf("folded %d records, want %d", st.Records, len(recs))
		}
		// Slot 1 went to its plan (queued entry and late ingest both),
		// slot 0's late ingest with it, slot 2 keeps the checkpoint's
		// queued demand plus the suffix's, slot 3 passed its boundary
		// with no plan — and takes the checkpoint's pending demand with
		// it, which was slot 3's — so only slot 4 is pending.
		wantQueue := []QueuedSlot{
			{Slot: 2, Requests: 3, Entries: []Entry{{Hotspot: 2, Video: 2, Count: 3}}},
			{Slot: 3, Requests: 16, Entries: []Entry{{Hotspot: 0, Video: 0, Count: 5}, {Hotspot: 5, Video: 1, Count: 2}, {Hotspot: 9, Video: 9, Count: 9}}},
		}
		if got := mergedQueue(st.Queue); !reflect.DeepEqual(got, wantQueue) {
			t.Errorf("queue %+v, want %+v", got, wantQueue)
		}
		wantPending := []Entry{{Hotspot: 4, Video: 4, Count: 3}}
		if !reflect.DeepEqual(st.Pending, wantPending) || st.PendingRequests != 3 {
			t.Errorf("pending %+v (%d requests), want %+v (3)", st.Pending, st.PendingRequests, wantPending)
		}
		for n := range recs {
			requireFoldMatchesReference(t, ckpt, recs[:n], "out of order, prefix "+itoa(n))
			requireFoldMatchesReference(t, nil, recs[:n], "out of order, no checkpoint, prefix "+itoa(n))
		}
	})
	t.Run("a coalesced slot goes with the newer slot's plan", func(t *testing.T) {
		recs := coalescedSlot(t)
		st := requireFoldMatchesReference(t, nil, recs, "coalesced")
		if len(st.Queue) != 0 || st.Slot != 5 {
			t.Errorf("queue %+v at slot %d, want nothing queued at slot 5", st.Queue, st.Slot)
		}
		if want := []Entry{{Hotspot: 2, Video: 2, Count: 1}}; !reflect.DeepEqual(st.Pending, want) {
			t.Errorf("pending %+v, want %+v", st.Pending, want)
		}
		// Before the plan, slots 3 and 4 are queued apart.
		st = requireFoldMatchesReference(t, nil, recs[:len(recs)-1], "coalesced, before the plan")
		if len(st.Queue) != 2 {
			t.Errorf("queue %+v, want slots 3 and 4", st.Queue)
		}
	})
	t.Run("checkpoint with pending demand, then its slot's advance and plan", func(t *testing.T) {
		// The checkpoint's pending demand is slot 2's: wherever the log
		// ends, it is in exactly one place — pending while slot 2 is
		// open, queued under slot 2 once the advance is durable, gone
		// once the plan that scheduled it is.
		recs, ckpt := pendingThenAdvancePlan(t)
		slot2 := func(extra int64) []Entry {
			return []Entry{{Hotspot: 1, Video: 1, Count: 2 + extra}, {Hotspot: 3, Video: 0, Count: 1}}
		}
		slot3 := []Entry{{Hotspot: 7, Video: 7, Count: 4}}
		want := []struct {
			slot    int
			epoch   int64
			pending []Entry
			queue   []QueuedSlot
		}{
			0: {2, 2, slot2(0), nil},
			1: {2, 2, slot2(1), nil},
			2: {3, 2, []Entry{}, []QueuedSlot{{Slot: 2, Requests: 4, Entries: slot2(1)}}},
			3: {3, 2, slot3, []QueuedSlot{{Slot: 2, Requests: 4, Entries: slot2(1)}}},
			4: {3, 3, slot3, nil},
		}
		for n, w := range want {
			ctx := "pending then advance + plan, prefix " + itoa(n)
			st := requireFoldMatchesReference(t, ckpt, recs[:n], ctx)
			if st.Slot != w.slot || st.Epoch != w.epoch {
				t.Errorf("%s: slot %d epoch %d, want %d and %d", ctx, st.Slot, st.Epoch, w.slot, w.epoch)
			}
			if got := merged(st.Pending); !reflect.DeepEqual(got, w.pending) {
				t.Errorf("%s: pending %+v, want %+v", ctx, got, w.pending)
			}
			if got := mergedQueue(st.Queue); !reflect.DeepEqual(got, w.queue) {
				t.Errorf("%s: queue %+v, want %+v", ctx, got, w.queue)
			}
			var reqs int64
			for _, e := range w.pending {
				reqs += e.Count
			}
			if st.PendingRequests != reqs {
				t.Errorf("%s: %d pending requests, want %d", ctx, st.PendingRequests, reqs)
			}
		}
		if st := foldState(ckpt, recs); st.Plan == nil || st.Plan.Slot != 2 || st.Plan.Epoch != 3 {
			t.Errorf("full stream: plan %+v; want slot 2's plan at epoch 3", st.Plan)
		}
	})
	ingest := func(slot, instance int, h, v int, n int64) record {
		return record{kind: recIngest, slot: slot, instance: instance, hotspot: h, video: v, count: n}
	}
	t.Run("one key split across tags of one destination", func(t *testing.T) {
		// Slots 1 and 2 are past their boundary and queue apart; slots
		// 3 and 4 are both pending, and their entries fold together.
		recs := []record{
			ingest(1, 0, 5, 5, 1), ingest(2, 0, 5, 5, 2), ingest(3, 0, 5, 5, 3),
			ingest(4, 1, 5, 5, 4), ingest(3, 1, 1<<33, 5, 1), ingest(4, 0, 1<<33, 5, 1),
			{kind: recAdvance, slot: 2},
		}
		st := requireFoldMatchesReference(t, nil, recs, "split tags")
		if want := []Entry{{Hotspot: 5, Video: 5, Count: 7}, {Hotspot: 1 << 33, Video: 5, Count: 2}}; !reflect.DeepEqual(merged(st.Pending), want) {
			t.Errorf("pending %+v, want %+v", merged(st.Pending), want)
		}
		if len(st.Queue) != 2 {
			t.Errorf("queue %+v, want slots 1 and 2 apart", st.Queue)
		}
	})
	t.Run("checkpoint demand overlapping the log's", func(t *testing.T) {
		ckpt := &Checkpoint{
			Slot:    3,
			Pending: []Entry{{Hotspot: 1, Video: 2, Count: 2}, {Hotspot: 4, Video: 4, Count: 1}},
			Queue: []QueuedSlot{
				{Slot: 1, Requests: 2, Entries: []Entry{{Hotspot: 1, Video: 1, Count: 2}}},
				{Slot: 2, Requests: 3, Entries: []Entry{{Hotspot: 9, Video: 0, Count: 3}}},
			},
		}
		recs := []record{
			ingest(3, 0, 1, 2, 5), ingest(3, 0, 4, 4, 1), ingest(2, 0, 9, 0, 1),
			ingest(1, 1, 1, 1, 1), ingest(4, 1, 1, 2, 1),
		}
		for n := range len(recs) + 1 {
			requireFoldMatchesReference(t, ckpt, recs[:n], "overlap, prefix "+itoa(n))
		}
		// Slot 3 closes: the checkpoint's pending demand and the log's
		// queue under it together.
		recs = append(recs, record{kind: recAdvance, slot: 3})
		st := requireFoldMatchesReference(t, ckpt, recs, "overlap, slot 3 closed")
		want := []QueuedSlot{
			{Slot: 1, Requests: 3, Entries: []Entry{{Hotspot: 1, Video: 1, Count: 3}}},
			{Slot: 2, Requests: 4, Entries: []Entry{{Hotspot: 9, Video: 0, Count: 4}}},
			{Slot: 3, Requests: 9, Entries: []Entry{{Hotspot: 1, Video: 2, Count: 7}, {Hotspot: 4, Video: 4, Count: 2}}},
		}
		if got := mergedQueue(st.Queue); !reflect.DeepEqual(got, want) {
			t.Errorf("queue %+v, want %+v", got, want)
		}
	})
}
