package wal

import (
	"bytes"
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

// run is the demand one slot tag has gathered: its ingests'
// (hotspot, video, count) in log order, unmerged, and the requests
// behind them. finish merges each destination's runs in one pass.
type run struct {
	slot     int
	entries  []Entry
	requests int64
}

// absorb moves src's demand into dst, appending the shorter buffer to
// the longer, and returns the buffer left over (nil when dst had none).
func (dst *run) absorb(src *run) (spent []Entry) {
	dst.requests += src.requests
	a, b := dst.entries, src.entries
	if cap(a) < cap(b) {
		a, b = b, a
	}
	dst.entries = append(a, b...)
	return b
}

// cursor is one instance's ingest watermarks: base is the checkpoint's
// (frozen — it decides the skip), seq the newest seen, and set marks
// an instance State.Cursors names.
type cursor struct {
	base, seq uint64
	set       bool
}

// replay is the recovery fold. Seeded from the base checkpoint (nil
// for none), it is handed every valid log record once, in log order
// (apply), keeps only runs and high-water marks — no record outlives
// its call — and finish renders the State. Demand counts commute, so
// appending each ingest to its slot tag's run as it is scanned and
// merging at the end gives the sums that replaying the ingests in
// (slot, instance, seq) order would; the rules that need the whole log
// (had a slot's boundary passed) wait for finish. The fold never
// panics, whatever the records (FuzzWALReplay drives it with
// adversarial streams), and any plan it returns has passed
// verifyPlanBytes.
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
	// cursors is indexed by instance id (at most maxInstanceValue).
	cursors []cursor
	// runs holds the run of every tag not consumed; last is the run of
	// lastSlot, the previous ingest's tag (nil when it is consumed;
	// lastSlot -1 when nothing is cached), whose successor nearly
	// always carries the same one.
	runs     map[int]*run
	last     *run
	lastSlot int
	// spare is the largest buffer a released run left: the next run
	// starts in it, and finish merges through it.
	spare []Entry
	// stopped is set by the first plan record that fails verification.
	stopped bool
}

func newReplay(ckpt *Checkpoint) *replay {
	rp := &replay{
		st:       &State{Cursors: make(map[int]uint64)},
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
		for id, seq := range ckpt.Cursors {
			c := rp.cursor(id)
			c.base, c.seq, c.set = seq, seq, true
		}
	}
	return rp
}

// cursor returns instance id's entry, growing the table to reach it.
func (rp *replay) cursor(id int) *cursor {
	if id >= len(rp.cursors) {
		rp.cursors = append(rp.cursors, make([]cursor, id+1-len(rp.cursors))...)
	}
	return &rp.cursors[id]
}

// apply folds one record in.
func (rp *replay) apply(r *record) {
	if rp.stopped {
		return
	}
	st := rp.st
	switch r.kind {
	case recIngest:
		c := rp.cursor(r.instance)
		if r.seq > c.seq {
			c.seq, c.set = r.seq, true
		}
		// The checkpoint's own cursors decide the skip, not the
		// advancing ones: the log need not hold an instance's records
		// in sequence order. (A nil checkpoint reads as cursor 0.)
		if r.seq <= c.base {
			st.Skipped++
			break
		}
		if r.slot != rp.lastSlot {
			rp.last, rp.lastSlot = rp.runFor(r.slot), r.slot
		}
		if d := rp.last; d != nil {
			if len(d.entries) == cap(d.entries) {
				// Doubling: a run's buffers sum to twice its length.
				d.entries = slices.Grow(d.entries, max(len(d.entries), 64))
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
		if !timedVerify(r.canonical, r.digest, &st.PlanVerify) {
			rp.stopped = true
			return
		}
		rp.consume(r.slot)
		if st.Plan == nil || r.epoch > st.Plan.Epoch {
			st.Plan = &PlanState{Slot: r.slot, Epoch: r.epoch, Digest: r.digest, Canonical: bytes.Clone(r.canonical)}
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
// runs of every tag up to it are released.
func (rp *replay) consume(slot int) {
	if slot <= rp.consumed {
		return
	}
	rp.consumed = slot
	for s, d := range rp.runs {
		if s <= slot {
			delete(rp.runs, s)
			rp.release(d.entries)
		}
	}
	rp.lastSlot = -1
}

// release keeps es as the spare buffer if it is the largest so far.
func (rp *replay) release(es []Entry) {
	if cap(es) > cap(rp.spare) {
		rp.spare = es[:0]
	}
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
	for id, c := range rp.cursors {
		if c.set {
			st.Cursors[id] = c.seq
		}
	}

	// Gather each destination's demand into one buffer.
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
	for _, d := range rp.runs {
		rp.release(into(d.slot).absorb(d))
	}
	if ckpt != nil {
		// What the checkpoint found in the frontends is demand of the
		// slot that was open at the capture — tagged ckpt.Slot like the
		// ingests that put it there (all at or below the checkpoint's
		// cursors, so none is counted again), and subject to the same
		// rules: when the log goes on to close that slot it is queued,
		// and when it holds the slot's plan it has been scheduled.
		if len(ckpt.Pending) > 0 && ckpt.Slot > rp.consumed {
			d := into(ckpt.Slot)
			d.entries = append(d.entries, ckpt.Pending...)
			for _, e := range ckpt.Pending {
				d.requests += e.Count
			}
		}
		for _, q := range ckpt.Queue {
			if q.Slot <= rp.consumed {
				continue // its plan (or contract error) became durable after the checkpoint
			}
			d := queue(q.Slot)
			d.entries = append(d.entries, q.Entries...)
			d.requests += q.Requests
		}
	}

	scratch := rp.spare
	st.Pending, scratch = settle(pending.entries, scratch)
	st.PendingRequests = pending.requests
	slots := make([]int, 0, len(queued))
	for s := range queued {
		slots = append(slots, s)
	}
	slices.Sort(slots)
	for _, s := range slots {
		var es []Entry
		if es, scratch = settle(queued[s].entries, scratch); len(es) == 0 {
			continue
		}
		st.Queue = append(st.Queue, QueuedSlot{Slot: s, Requests: queued[s].requests, Entries: es})
	}
	return st
}

// settle merges es (mergeEntries) into a slice of its own, exactly as
// long as the merged demand and never nil.
func settle(es, scratch []Entry) ([]Entry, []Entry) {
	es, scratch = mergeEntries(es, scratch)
	return append(make([]Entry, 0, len(es)), es...), scratch
}

// mergeEntries puts es in (hotspot, video) order and sums the counts
// of equal keys, in place, returning the merged prefix — the
// deterministic form of recovered state — and a reusable scratch
// buffer (grown to len(es) if it was shorter) for the next call. The
// order comes from stable counting passes — one per byte of the span
// of video ids present, then one per byte of the span of hotspot ids
// (the pattern of similarity.orderByID, moving entries rather than
// positions) — and one walk then sums adjacent equal keys.
func mergeEntries(es, scratch []Entry) ([]Entry, []Entry) {
	if len(es) < 2 {
		return es, scratch
	}
	if cap(scratch) < len(es) {
		scratch = make([]Entry, len(es))
	}
	src, dst := es, scratch[:len(es)]
	for _, video := range [2]bool{true, false} {
		lo, hi := keyOf(&src[0], video), keyOf(&src[0], video)
		for i := range src {
			k := keyOf(&src[i], video)
			lo, hi = min(lo, k), max(hi, k)
		}
		// Two's-complement differences are exact: hi − lo < 2⁶⁴.
		span := uint64(hi) - uint64(lo)
		for shift := uint(0); span>>shift > 0; shift += 8 {
			countingPass(src, dst, video, lo, shift)
			src, dst = dst, src
		}
	}
	n := 0
	for i := range src {
		e := src[i]
		if n > 0 && es[n-1].Hotspot == e.Hotspot && es[n-1].Video == e.Video {
			es[n-1].Count += e.Count
			continue
		}
		es[n] = e
		n++
	}
	return es[:n], scratch
}

// keyOf is the id a counting pass orders e by.
func keyOf(e *Entry, video bool) int {
	if video {
		return e.Video
	}
	return e.Hotspot
}

// countingPass moves src into dst stably ordered by one byte of
// keyOf − lo.
func countingPass(src, dst []Entry, video bool, lo int, shift uint) {
	var at [257]int // at[b+1] counts bucket b, then at[b] is where b starts
	for i := range src {
		at[(uint64(keyOf(&src[i], video))-uint64(lo))>>shift&255+1]++
	}
	for b := 0; b < 256; b++ {
		at[b+1] += at[b]
	}
	for i := range src {
		b := (uint64(keyOf(&src[i], video)) - uint64(lo)) >> shift & 255
		dst[at[b]] = src[i]
		at[b]++
	}
}
