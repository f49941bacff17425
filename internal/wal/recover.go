package wal

import (
	"slices"
	"time"

	"repro/internal/core"
)

// State is what recovery hands the server: provably equal to the
// durable prefix of the crashed run. Slot/Epoch restore the counters,
// Plan (if any) is the newest verified plan, Pending is accepted
// demand not yet drained into a slot, and Queue is drained demand
// whose plan never became durable. The loaded checkpoint's state
// covers every record before its position, and recovery folds each
// record after it exactly once.
type State struct {
	// Slot is the restored slot counter (the next slot to drain).
	Slot int
	// Epoch is the last durable plan epoch.
	Epoch int64
	// Plan is the newest verified durable plan (nil before any plan),
	// decoded (Plan.Decoded).
	Plan *PlanState
	// Pending is the accepted-but-undrained demand as recovery found
	// it, unmerged: the checkpoint's entries, then each slot tag's
	// ingests in log order. A (hotspot, video) may appear many times;
	// the server's core.Demand folds them.
	Pending []Entry
	// PendingRequests is the total request count behind Pending.
	PendingRequests int64
	// Queue holds drained slots awaiting (re)scheduling, slot order,
	// their entries unmerged like Pending's.
	Queue []QueuedSlot
	// CheckpointSeq is the loaded checkpoint's sequence (0 = none).
	CheckpointSeq uint64
	// Records counts the WAL records the scan decoded and folded:
	// those after the loaded checkpoint's position (the whole log
	// without a checkpoint).
	Records int
	// TruncatedBytes counts bytes discarded as torn tail / corruption
	// (including whole segments after the first invalid frame).
	TruncatedBytes int64
	// Elapsed is how long Open took, PlanVerify the part of it spent in
	// core.VerifyCanonical (the checkpoint's plan and every plan
	// record).
	Elapsed    time.Duration
	PlanVerify time.Duration
}

// ReplayBound is the worst case of State.Records — the records a boot
// scans, whichever checkpoint it loads — for a server that checkpoints
// every checkpointEvery scheduled slots, logs at most slotIngests
// ingests per slot, schedules every slot it closes and is not lagging
// when it captures a checkpoint. A boot scans from the position of the
// checkpoint it loads; the worst case falls back to the older retained
// one (segment GC lags one checkpoint, so its suffix is on disk):
// checkpointEvery slots up to the newest checkpoint, checkpointEvery
// more until the next one is written, and the slot that is open
// meanwhile — each slot its ingests, an advance and a plan record.
// DESIGN §16 says what the excluded cases add.
func ReplayBound(checkpointEvery, slotIngests int) int {
	return (2*checkpointEvery + 1) * (slotIngests + 2)
}

// verifyPlan holds durable plan bytes to the same gate as the serving
// tier's install (core.VerifyCanonical), adding its wall time to
// *spent, and returns the decoded plan — nil when the bytes fail.
// Durable state never reaches the server without passing this.
func verifyPlan(canonical []byte, digest uint64, spent *time.Duration) *core.Plan {
	t0 := time.Now()
	plan, err := core.VerifyCanonical(canonical, digest)
	*spent += time.Since(t0)
	if err != nil {
		return nil
	}
	return plan
}

// run is the demand one slot tag has gathered: its ingests'
// (hotspot, video, count) in log order and the requests behind them.
type run struct {
	slot     int
	entries  []Entry
	requests int64
}

// absorb appends src's demand to dst's, taking src's buffer when dst
// has none.
func (dst *run) absorb(src *run) {
	dst.requests += src.requests
	if dst.entries == nil {
		dst.entries = src.entries
	} else {
		dst.entries = append(dst.entries, src.entries...)
	}
}

// replay is the recovery fold. Seeded from the base checkpoint (nil
// for none), it is handed every valid log record after the
// checkpoint's position once, in log order (apply), keeps only runs
// and high-water marks — no record outlives its call — and finish
// renders the State. The checkpoint already holds what the records
// before its position built, and none after it: an ingest is appended
// to its slot tag's run as it is scanned; the rules that need the
// whole log (had a slot's boundary passed) wait for finish. Nothing
// is summed here: demand counts commute, and the server's core.Demand
// folds the entries. A plan record comes verified (record.verify), and
// the fold takes the verdict. The fold never panics, whatever the
// records (FuzzWALReplay drives it with adversarial streams), and any
// plan it returns has passed verifyPlan.
type replay struct {
	st   *State
	ckpt *Checkpoint
	// maxAdv is the advance high-water mark, consumed the outcome one:
	// the highest slot whose plan or contract error is durable. The
	// server's single worker drains its queue in FIFO order, so an
	// outcome for slot s means every slot at or below s has been
	// consumed — a slot coalesced into a newer one included, which gets
	// no outcome record of its own. Runs at or below consumed are
	// released as the outcome is scanned; later ingests tagged there
	// are dropped.
	maxAdv   int
	consumed int
	// runs holds the run of every tag not consumed; last is the run of
	// lastSlot, the previous ingest's tag (nil when it is consumed;
	// lastSlot -1 when nothing is cached), whose successor nearly
	// always carries the same one.
	runs     map[int]*run
	last     *run
	lastSlot int
	// spare is the largest buffer a released run left: the next run
	// starts in it.
	spare []Entry
	// left bounds the log bytes still to fold, from the block being
	// folded on (applyBlock); 0 when unknown. A run that fills grows
	// by the ingests they can hold, so in Open it grows once.
	left int64
	// stopped is set by the first plan record that fails verification.
	stopped bool
}

func newReplay(ckpt *Checkpoint) *replay {
	rp := &replay{
		st:       &State{},
		ckpt:     ckpt,
		maxAdv:   -1,
		consumed: -1,
		runs:     make(map[int]*run),
		lastSlot: -1,
	}
	if ckpt != nil {
		st := rp.st
		st.Slot = ckpt.Slot
		st.Epoch = ckpt.Epoch
		st.Plan = ckpt.Plan
		st.CheckpointSeq = ckpt.Seq
	}
	return rp
}

// applyBlock folds one block of the scan in, in order.
func (rp *replay) applyBlock(b *block) {
	rp.left = b.left
	for i := range b.recs {
		rp.apply(&b.recs[i])
	}
}

// apply folds one record in.
func (rp *replay) apply(r *record) {
	if rp.stopped {
		return
	}
	st := rp.st
	switch r.kind {
	case recIngest:
		if r.slot != rp.lastSlot {
			rp.last, rp.lastSlot = rp.runFor(r.slot), r.slot
		}
		if d := rp.last; d != nil {
			if len(d.entries) == cap(d.entries) {
				// Sized from the bytes left to fold: no ingest frame is
				// shorter than minIngestFrameBytes. Without that bound
				// (left 0) the run doubles.
				d.entries = slices.Grow(d.entries, max(int(rp.left/minIngestFrameBytes), len(d.entries), 64))
			}
			d.entries = append(d.entries, Entry{Hotspot: r.hotspot, Video: r.video, Count: r.count})
			d.requests += r.count
		}
	case recAdvance:
		rp.maxAdv = max(rp.maxAdv, r.slot)
	case recPlan:
		// A plan record whose bytes fail verification is corruption
		// that slipped past the CRC; trusting anything after it would
		// violate the durable-prefix contract, so replay stops there.
		if r.plan == nil {
			rp.stopped = true
			return
		}
		rp.consume(r.slot)
		if st.Plan == nil || r.epoch > st.Plan.Epoch {
			st.Plan = &PlanState{Slot: r.slot, Epoch: r.epoch, Digest: r.digest, Canonical: r.canonical, Decoded: r.plan}
		}
		st.Epoch = max(st.Epoch, r.epoch)
	case recRoundErr:
		rp.consume(r.slot)
	}
	st.Records++
}

// runFor returns the run of slot tag slot, starting one if need be,
// or nil when the tag's demand is consumed.
func (rp *replay) runFor(slot int) *run {
	if slot <= rp.consumed {
		return nil
	}
	d := rp.runs[slot]
	if d == nil {
		d = &run{slot: slot, entries: rp.spare}
		rp.spare = nil
		rp.runs[slot] = d
	}
	return d
}

// consume records that slot's plan or contract error is durable: the
// runs of every tag up to it are released, the largest buffer kept as
// the spare.
func (rp *replay) consume(slot int) {
	if slot <= rp.consumed {
		return
	}
	rp.consumed = slot
	for s, d := range rp.runs {
		if s <= slot {
			delete(rp.runs, s)
			if cap(d.entries) > cap(rp.spare) {
				rp.spare = d.entries[:0]
			}
		}
	}
	rp.lastSlot = -1
}

// finish applies the whole-log rules and renders the State: below
// drainedBound a slot has durably passed its boundary, so its
// surviving demand belongs to the queue; everything at or above it is
// still pending. Consumed tags have no run left to read.
func (rp *replay) finish() *State {
	st, ckpt := rp.st, rp.ckpt
	st.Slot = max(st.Slot, rp.maxAdv+1, rp.consumed+1)
	drainedBound := rp.maxAdv + 1
	if ckpt != nil {
		drainedBound = max(drainedBound, ckpt.Slot)
	}

	// Gather each destination's demand: the checkpoint's first, then
	// the runs in slot order.
	var pending run
	queued := make(map[int]*run)
	queue := func(slot int) *run {
		q := queued[slot]
		if q == nil {
			q = &run{slot: slot}
			queued[slot] = q
		}
		return q
	}
	into := func(slot int) *run {
		if slot < drainedBound {
			return queue(slot)
		}
		return &pending
	}
	if ckpt != nil {
		// What the checkpoint found in the frontends is demand of the
		// slot that was open at the capture — tagged ckpt.Slot like the
		// ingests that put it there (all before its position, so none
		// is counted again), and subject to the same rules: when
		// the log goes on to close that slot it is queued, and when it
		// holds the slot's plan it has been scheduled.
		if len(ckpt.Pending) > 0 && ckpt.Slot > rp.consumed {
			d := &run{entries: ckpt.Pending}
			for _, e := range ckpt.Pending {
				d.requests += e.Count
			}
			into(ckpt.Slot).absorb(d)
		}
		for _, q := range ckpt.Queue {
			if q.Slot <= rp.consumed {
				continue // its plan (or contract error) became durable after the checkpoint
			}
			queue(q.Slot).absorb(&run{entries: q.Entries, requests: q.Requests})
		}
	}
	for _, s := range sortedSlots(rp.runs) {
		into(s).absorb(rp.runs[s])
	}

	st.Pending, st.PendingRequests = pending.entries, pending.requests
	for _, s := range sortedSlots(queued) {
		if q := queued[s]; len(q.entries) > 0 {
			st.Queue = append(st.Queue, QueuedSlot{Slot: s, Requests: q.requests, Entries: q.entries})
		}
	}
	return st
}

// sortedSlots returns runs' slot tags, ascending.
func sortedSlots(runs map[int]*run) []int {
	slots := make([]int, 0, len(runs))
	for s := range runs {
		slots = append(slots, s)
	}
	slices.Sort(slots)
	return slots
}
