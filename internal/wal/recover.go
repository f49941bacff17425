package wal

import (
	"sort"

	"repro/internal/core"
)

// State is what recovery hands the server: provably equal to the
// durable prefix of the crashed run. Slot/Epoch restore the counters,
// Plan (if any) is the newest verified plan, Pending is accepted
// demand not yet drained into a slot, Queue is drained demand whose
// plan never became durable, and Cursors are the per-instance ingest
// sequence watermarks the server resumes from.
type State struct {
	// Slot is the restored slot counter (the next slot to drain).
	Slot int
	// Epoch is the last durable plan epoch.
	Epoch int64
	// Plan is the newest verified durable plan (nil before any plan).
	Plan *PlanState
	// Pending is merged accepted-but-undrained demand, sorted
	// (hotspot, video).
	Pending []Entry
	// PendingRequests is the total request count behind Pending.
	PendingRequests int64
	// Queue holds drained slots awaiting (re)scheduling, slot order.
	Queue []QueuedSlot
	// Cursors maps instance id to its last durable ingest sequence.
	Cursors map[int]uint64
	// CheckpointSeq is the loaded checkpoint's sequence (0 = none).
	CheckpointSeq uint64
	// Records counts WAL records replayed on top of the checkpoint.
	Records int
	// TruncatedBytes counts bytes discarded as torn tail / corruption
	// (including whole segments after the first invalid frame).
	TruncatedBytes int64
}

// verifyPlanBytes holds durable plan bytes to the same gate as the
// serving tier's fan-out install (core.VerifyCanonical). Durable state
// never reaches the server without passing this.
func verifyPlanBytes(canonical []byte, digest uint64) bool {
	_, err := core.VerifyCanonical(canonical, digest)
	return err == nil
}

// EntryKey is the (hotspot, video) pair demand increments merge under.
type EntryKey struct{ Hotspot, Video int }

// buildState deterministically reconstructs server state from a base
// checkpoint (nil for none) plus the decoded WAL records, in log
// order. It never panics, whatever the inputs (FuzzWALReplay drives
// it with adversarial record streams), and any plan it returns has
// passed verifyPlanBytes.
func buildState(ckpt *Checkpoint, recs []record) *State {
	st := &State{Cursors: make(map[int]uint64)}
	base := make(map[int]uint64) // checkpoint cursors, frozen for skip decisions
	if ckpt != nil {
		st.Slot = ckpt.Slot
		st.Epoch = ckpt.Epoch
		st.Plan = ckpt.Plan
		st.CheckpointSeq = ckpt.Seq
		for id, seq := range ckpt.Cursors {
			base[id] = seq
			st.Cursors[id] = seq
		}
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

	// First pass, log order: slot outcomes (plan or contract error),
	// the newest plan, and the advance high-water mark.
	maxAdv := -1
	outcome := make(map[int]bool)
	var ingests []record
	for _, r := range recs {
		switch r.kind {
		case recAdvance:
			if r.slot > maxAdv {
				maxAdv = r.slot
			}
		case recPlan:
			outcome[r.slot] = true
			if st.Plan == nil || r.epoch > st.Plan.Epoch {
				st.Plan = &PlanState{Slot: r.slot, Epoch: r.epoch, Digest: r.digest, Canonical: r.canonical}
			}
			if r.epoch > st.Epoch {
				st.Epoch = r.epoch
			}
		case recRoundErr:
			outcome[r.slot] = true
		case recIngest:
			if r.seq > base[r.instance] {
				ingests = append(ingests, r)
			}
			if r.seq > st.Cursors[r.instance] {
				st.Cursors[r.instance] = r.seq
			}
		}
	}
	if maxAdv+1 > st.Slot {
		st.Slot = maxAdv + 1
	}
	for s := range outcome {
		if s+1 > st.Slot {
			st.Slot = s + 1
		}
	}
	// drainedBound: slots strictly below it have durably passed their
	// boundary; their surviving demand belongs to the queue, everything
	// at or above it is still pending.
	drainedBound := maxAdv + 1
	if ckpt != nil && ckpt.Slot > drainedBound {
		drainedBound = ckpt.Slot
	}

	// Deterministic replay order. Demand counts commute, so the merge
	// result is order-independent — the sort pins the record-for-record
	// reconstruction order regardless of how concurrent appends from
	// different stripes interleaved in the log.
	sort.SliceStable(ingests, func(i, j int) bool {
		a, b := ingests[i], ingests[j]
		if a.slot != b.slot {
			return a.slot < b.slot
		}
		if a.instance != b.instance {
			return a.instance < b.instance
		}
		return a.seq < b.seq
	})

	pending := make(map[EntryKey]int64)
	queued := make(map[int]map[EntryKey]int64)
	queuedReqs := make(map[int]int64)
	if ckpt != nil {
		for _, q := range ckpt.Queue {
			if outcome[q.Slot] {
				continue // its plan (or contract error) became durable after the checkpoint
			}
			m := queued[q.Slot]
			if m == nil {
				m = make(map[EntryKey]int64)
				queued[q.Slot] = m
			}
			for _, e := range q.Entries {
				m[EntryKey{e.Hotspot, e.Video}] += e.Count
			}
			queuedReqs[q.Slot] += q.Requests
		}
	}
	for _, r := range ingests {
		if outcome[r.slot] {
			continue // consumed by a durable plan
		}
		if r.slot < drainedBound {
			m := queued[r.slot]
			if m == nil {
				m = make(map[EntryKey]int64)
				queued[r.slot] = m
			}
			m[EntryKey{r.hotspot, r.video}] += r.count
			queuedReqs[r.slot] += r.count
		} else {
			pending[EntryKey{r.hotspot, r.video}] += r.count
			st.PendingRequests += r.count
		}
	}
	if ckpt != nil {
		for _, e := range ckpt.Pending {
			pending[EntryKey{e.Hotspot, e.Video}] += e.Count
			st.PendingRequests += e.Count
		}
	}

	st.Pending = SortedEntries(pending)
	slots := make([]int, 0, len(queued))
	for s := range queued {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	for _, s := range slots {
		es := SortedEntries(queued[s])
		if len(es) == 0 {
			continue
		}
		st.Queue = append(st.Queue, QueuedSlot{Slot: s, Requests: queuedReqs[s], Entries: es})
	}
	return st
}

// SortedEntries renders a merged demand map as (hotspot, video)-sorted
// entries: the deterministic order of checkpoint bytes and of
// recovered state.
func SortedEntries(m map[EntryKey]int64) []Entry {
	out := make([]Entry, 0, len(m))
	for k, n := range m {
		out = append(out, Entry{Hotspot: k.Hotspot, Video: k.Video, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hotspot != out[j].Hotspot {
			return out[i].Hotspot < out[j].Hotspot
		}
		return out[i].Video < out[j].Video
	})
	return out
}
