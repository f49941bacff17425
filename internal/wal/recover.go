package wal

import (
	"bytes"
	"cmp"
	"slices"
	"time"

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
	// Records counts WAL records replayed on top of the checkpoint,
	// Skipped the ingests among them at or below the checkpoint's
	// cursors (scanned, but already part of the checkpoint's state).
	Records int
	Skipped int
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
// when it captures a checkpoint. Segment collection lags one checkpoint
// (WriteCheckpoint), so the log on disk starts with the segment that
// was active when the previous checkpoint was captured: at most one
// segment of rounding before that capture, checkpointEvery slots up to
// the newest checkpoint, checkpointEvery more until the next one has
// collected, and the slot that is open meanwhile — each slot its
// ingests, an advance and a plan record. DESIGN §16 says what the
// excluded cases add. segmentBytes 0 selects DefaultSegmentBytes.
func ReplayBound(checkpointEvery, slotIngests int, segmentBytes int64) int {
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	// The shortest frame is an advance record: header, kind, slot.
	const minFrameBytes = frameHeaderBytes + 2
	return int(segmentBytes/minFrameBytes) + 1 + (2*checkpointEvery+1)*(slotIngests+2)
}

// verifyPlanBytes holds durable plan bytes to the same gate as the
// serving tier's install (core.VerifyCanonical). Durable state
// never reaches the server without passing this.
func verifyPlanBytes(canonical []byte, digest uint64) bool {
	_, err := core.VerifyCanonical(canonical, digest)
	return err == nil
}

// timedVerify is verifyPlanBytes with its wall time added to *spent.
func timedVerify(canonical []byte, digest uint64, spent *time.Duration) bool {
	t0 := time.Now()
	ok := verifyPlanBytes(canonical, digest)
	*spent += time.Since(t0)
	return ok
}

// entryKey is the (hotspot, video) pair demand increments merge under.
type entryKey struct{ Hotspot, Video int }

// slotDemand is merged demand under one slot tag: counts per
// (hotspot, video) and the requests behind them.
type slotDemand struct {
	entries  map[entryKey]int64
	requests int64
}

// add merges checkpointed entries in.
func (d *slotDemand) add(es []Entry) {
	if d.entries == nil {
		d.entries = make(map[entryKey]int64, len(es))
	}
	for _, e := range es {
		d.entries[entryKey{e.Hotspot, e.Video}] += e.Count
	}
}

// absorb merges src in, adopting src's map outright while d has none.
func (d *slotDemand) absorb(src *slotDemand) {
	d.requests += src.requests
	if d.entries == nil {
		d.entries = src.entries
		return
	}
	for k, n := range src.entries {
		d.entries[k] += n
	}
}

// replay is the recovery fold. Seeded from the base checkpoint (nil
// for none), it is handed every valid log record once, in log order
// (apply), keeps only sums and high-water marks — no record outlives
// its call — and finish renders the State. Demand counts commute, so
// adding each ingest into its slot's map as it is scanned gives the
// sums that replaying the ingests in (slot, instance, seq) order
// would; the rules that need the whole log (was the slot's plan
// durable, had its boundary passed) wait for finish. The fold never
// panics, whatever the records (FuzzWALReplay drives it with
// adversarial streams), and any plan it returns has passed
// verifyPlanBytes.
type replay struct {
	st   *State
	ckpt *Checkpoint
	// maxAdv is the advance high-water mark; outcome holds the slots
	// whose plan or contract error is durable.
	maxAdv  int
	outcome map[int]bool
	// demand is the ingests above the checkpoint's cursors, merged by
	// slot tag; last is the tag of the previous ingest, whose successor
	// nearly always carries the same one.
	demand   map[int]*slotDemand
	last     *slotDemand
	lastSlot int
	// stopped is set by the first plan record that fails verification.
	stopped bool
}

func newReplay(ckpt *Checkpoint) *replay {
	rp := &replay{
		st:      &State{Cursors: make(map[int]uint64)},
		ckpt:    ckpt,
		maxAdv:  -1,
		outcome: make(map[int]bool),
		demand:  make(map[int]*slotDemand),
	}
	if ckpt != nil {
		st := rp.st
		st.Slot = ckpt.Slot
		st.Epoch = ckpt.Epoch
		st.Plan = ckpt.Plan
		st.CheckpointSeq = ckpt.Seq
		for id, seq := range ckpt.Cursors {
			st.Cursors[id] = seq
		}
	}
	return rp
}

// apply folds one record in.
func (rp *replay) apply(r record) {
	if rp.stopped {
		return
	}
	st := rp.st
	switch r.kind {
	case recAdvance:
		rp.maxAdv = max(rp.maxAdv, r.slot)
	case recPlan:
		// A plan record whose bytes fail verification is corruption
		// that slipped past the CRC; trusting anything after it would
		// violate the durable-prefix contract, so replay stops there.
		if !timedVerify(r.canonical, r.digest, &st.PlanVerify) {
			rp.stopped = true
			return
		}
		rp.outcome[r.slot] = true
		if st.Plan == nil || r.epoch > st.Plan.Epoch {
			st.Plan = &PlanState{Slot: r.slot, Epoch: r.epoch, Digest: r.digest, Canonical: bytes.Clone(r.canonical)}
		}
		st.Epoch = max(st.Epoch, r.epoch)
	case recRoundErr:
		rp.outcome[r.slot] = true
	case recIngest:
		if r.seq > st.Cursors[r.instance] {
			st.Cursors[r.instance] = r.seq
		}
		// The checkpoint's own cursors decide the skip, not the
		// advancing ones: the log need not hold an instance's records
		// in sequence order. (A nil checkpoint reads as cursor 0.)
		var base uint64
		if rp.ckpt != nil {
			base = rp.ckpt.Cursors[r.instance]
		}
		if r.seq <= base {
			st.Skipped++
			break
		}
		d := rp.last
		if d == nil || r.slot != rp.lastSlot {
			if d = rp.demand[r.slot]; d == nil {
				d = &slotDemand{entries: make(map[entryKey]int64)}
				rp.demand[r.slot] = d
			}
			rp.last, rp.lastSlot = d, r.slot
		}
		d.entries[entryKey{r.hotspot, r.video}] += r.count
		d.requests += r.count
	}
	st.Records++
}

// finish applies the whole-log rules and renders the State: a slot
// whose plan or contract error is durable has consumed its demand;
// below drainedBound a slot has durably passed its boundary, so its
// surviving demand belongs to the queue; everything at or above it is
// still pending.
func (rp *replay) finish() *State {
	st, ckpt := rp.st, rp.ckpt
	st.Slot = max(st.Slot, rp.maxAdv+1)
	for s := range rp.outcome {
		st.Slot = max(st.Slot, s+1)
	}
	drainedBound := rp.maxAdv + 1
	if ckpt != nil {
		drainedBound = max(drainedBound, ckpt.Slot)
	}

	if ckpt != nil && len(ckpt.Pending) > 0 {
		// What the checkpoint found in the frontends is demand of the slot
		// that was open at the capture — tagged ckpt.Slot like the
		// ingests that put it there (all at or below the checkpoint's
		// cursors, so none is counted again), and subject to the same
		// rules: when the log goes on to close that slot it is queued,
		// and when it holds the slot's plan it has been scheduled.
		d := rp.demand[ckpt.Slot]
		if d == nil {
			d = &slotDemand{}
			rp.demand[ckpt.Slot] = d
		}
		d.add(ckpt.Pending)
		for _, e := range ckpt.Pending {
			d.requests += e.Count
		}
	}

	var pending slotDemand
	queued := make(map[int]*slotDemand)
	queue := func(slot int) *slotDemand {
		q := queued[slot]
		if q == nil {
			q = &slotDemand{}
			queued[slot] = q
		}
		return q
	}
	for slot, d := range rp.demand {
		switch {
		case rp.outcome[slot]: // consumed by a durable plan
		case slot < drainedBound:
			queue(slot).absorb(d)
		default:
			pending.absorb(d)
		}
	}
	if ckpt != nil {
		for _, q := range ckpt.Queue {
			if rp.outcome[q.Slot] {
				continue // its plan (or contract error) became durable after the checkpoint
			}
			qd := queue(q.Slot)
			qd.add(q.Entries)
			qd.requests += q.Requests
		}
	}

	st.Pending = sortedEntries(pending.entries)
	st.PendingRequests = pending.requests
	slots := make([]int, 0, len(queued))
	for s := range queued {
		slots = append(slots, s)
	}
	slices.Sort(slots)
	for _, s := range slots {
		es := sortedEntries(queued[s].entries)
		if len(es) == 0 {
			continue
		}
		st.Queue = append(st.Queue, QueuedSlot{Slot: s, Requests: queued[s].requests, Entries: es})
	}
	return st
}

// sortedEntries renders a merged demand map as sorted entries.
func sortedEntries(m map[entryKey]int64) []Entry {
	out := make([]Entry, 0, len(m))
	for k, n := range m {
		out = append(out, Entry{Hotspot: k.Hotspot, Video: k.Video, Count: n})
	}
	SortEntries(out)
	return out
}

// SortEntries puts entries with distinct keys in (hotspot, video)
// order: the deterministic order of checkpoint bytes and of recovered
// state.
func SortEntries(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int {
		if c := cmp.Compare(a.Hotspot, b.Hotspot); c != 0 {
			return c
		}
		return cmp.Compare(a.Video, b.Video)
	})
}
