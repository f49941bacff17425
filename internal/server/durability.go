package server

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wal"
)

// This file is the serving tier's side of the durability subsystem
// (internal/wal). The protocol, end to end:
//
//   - Every accepted ingest is logged under its frontend's lock, in the
//     same hold as its Add to the frontend's demand, and
//     group-committed before the 202 acknowledgment (acceptDemand).
//   - Every slot boundary logs an advance record under s.mu *before*
//     handOver re-stamps the frontends' slot tags, so in WAL order no
//     ingest tagged slot k+1 can precede advance k (Server.advance).
//   - Every scheduled plan logs its canonical bytes + digest and is
//     synced before the plan fans out to the frontends; a round that
//     fails its contract logs a roundErr record instead, durably
//     mirroring the live drop (Server.runSlot).
//   - Every CheckpointEvery slot outcomes — a published plan, a
//     roundErr, or an empty slot's advance — the recompute worker,
//     between rounds (and Close, after the worker exits), freezes s.mu
//     plus every frontend's lock and captures a checkpoint: slot/epoch
//     counters, the last plan, pending demand, queued-but-unplanned
//     snapshots and the log's append position (writeCheckpoint). That
//     one hold makes the position an exact cut of the log.
//
// On boot, openWAL loads the newest valid checkpoint, replays the WAL
// suffix from its position and re-seeds the server: recovery hands
// back exactly the durable prefix, so a kill/restart finishes a trace
// byte-identical to an uninterrupted run (certified in
// durability_e2e_test.go), whatever frontend count either run had —
// the cut is the log's, not a frontend's.

// openWAL opens cfg.WALDir, recovers the durable state, and applies it
// to the freshly built (not yet started) server.
func (s *Server) openWAL() error {
	policy, err := wal.ParsePolicy(s.cfg.Fsync)
	if err != nil {
		return err
	}
	l, st, err := wal.Open(s.cfg.WALDir, wal.Options{
		Policy:   policy,
		Interval: s.cfg.FsyncInterval,
		Registry: s.reg,
	})
	if err != nil {
		return err
	}
	s.wal = l
	s.walState = st
	s.slot = st.Slot
	s.epoch = st.Epoch
	for _, in := range s.instances {
		in.slot = st.Slot
	}

	// Accepted-but-unscheduled demand goes back to the frontend it
	// would live in, by the same owner rule; recovery hands the
	// entries back unmerged, and the frontend's core.Demand folds them.
	m := len(s.world.Hotspots)
	for _, e := range st.Pending {
		if e.Hotspot < 0 || e.Hotspot >= m || e.Video < 0 || e.Video >= s.world.NumVideos {
			// A WAL from a different world: drop the entry loudly
			// rather than corrupt the accumulators.
			s.walErrors.Inc()
			continue
		}
		owner := s.owner(e.Hotspot)
		owner.demand.Add(trace.HotspotID(e.Hotspot), trace.VideoID(e.Video), e.Count)
		owner.pending += e.Count
	}

	// The last durable plan goes back to serving on every frontend
	// through install, the live fan-out's install path: recovery has
	// verified and decoded it already.
	if st.Plan != nil {
		if err := s.install(time.Now(), st.Plan.Epoch, st.Plan.Slot, st.Plan.Decoded, st.Plan.Digest); err != nil {
			return fmt.Errorf("recovered plan rejected: %w", err)
		}
		s.history = append(s.history, planEntry{
			rec: PlanRecord{
				Slot:   st.Plan.Slot,
				Epoch:  st.Plan.Epoch,
				Digest: digestString(st.Plan.Digest),
			},
			canonical: st.Plan.Canonical,
		})
		s.lastPlan = st.Plan
	}

	// Drained-but-unplanned slots go back on the recompute queue; the
	// worker schedules them as soon as Start kicks it.
	for _, q := range st.Queue {
		d := core.NewDemand(m)
		var reqs int64
		for _, e := range q.Entries {
			if e.Hotspot < 0 || e.Hotspot >= m || e.Video < 0 || e.Video >= s.world.NumVideos {
				s.walErrors.Inc()
				continue
			}
			d.Add(trace.HotspotID(e.Hotspot), trace.VideoID(e.Video), e.Count)
			reqs += e.Count
		}
		if reqs == 0 {
			continue
		}
		d.Fold()
		s.queue = append(s.queue, &slotSnapshot{slot: q.Slot, demand: d, requests: reqs, start: time.Now()})
	}
	return nil
}

// syncWAL makes lsn durable per the policy, folding append and fsync
// failures into server.wal.errors (durability degrades loudly; the
// caller decides whether to keep the acknowledgment).
func (s *Server) syncWAL(lsn uint64, appendErr error) error {
	if s.wal == nil {
		return nil
	}
	if appendErr != nil {
		s.walErrors.Inc()
		return appendErr
	}
	if err := s.wal.Sync(lsn); err != nil {
		s.walErrors.Inc()
		return err
	}
	return nil
}

// maybeCheckpoint counts one slot outcome and writes a checkpoint when
// the cadence is due (or force is set). Only the recompute worker calls
// it, after a plan publishes or a round is dropped, and Close after the
// worker has exited: one writer, never mid-round. Empty slots count in
// advance and leave their checkpoint to the worker (drainQueue). Every
// outcome logged a record, so counting them all keeps an idle tier's
// log collectable.
func (s *Server) maybeCheckpoint(force bool) {
	if s.wal == nil {
		return
	}
	s.mu.Lock()
	s.sinceCkpt++
	due := force || s.checkpointDue()
	s.mu.Unlock()
	if due {
		s.writeCheckpoint()
	}
}

// checkpointDue reports whether CheckpointEvery slot outcomes have
// accumulated since the last checkpoint. Callers hold s.mu.
func (s *Server) checkpointDue() bool {
	return s.cfg.CheckpointEvery > 0 && s.sinceCkpt >= s.cfg.CheckpointEvery
}

// writeCheckpoint captures and persists the full durable state, then
// releases the empty slots that waited for it. The capture reads the
// log's append position and copies the state in one hold of s.mu and
// every frontend's lock, and that hold is what makes the position an
// exact cut: advances append under s.mu, ingests under their
// frontend's lock, plans and round errors on this worker, so no record
// is appended during the hold — every record before the position is in
// the captured state, and none after it.
func (s *Server) writeCheckpoint() {
	s.mu.Lock()
	s.sinceCkpt = 0
	waiters := s.ckptWaiters
	s.ckptWaiters = nil
	cp := &wal.Checkpoint{
		Slot:  s.slot,
		Epoch: s.epoch,
		Plan:  s.lastPlan,
	}
	for _, snap := range s.queue {
		cp.Queue = append(cp.Queue, queuedFromSnapshot(snap))
	}
	for _, in := range s.instances {
		in.mu.Lock()
	}
	// The position must be read inside this hold: read after the
	// frontends unlock, it could lie past ingests the copied demand
	// lacks (lost on recovery); read before they lock, before ingests
	// the demand holds (counted twice).
	cp.Pos = s.wal.Position()
	pending := core.NewDemand(len(s.world.Hotspots))
	for _, in := range s.instances {
		pending.Merge(in.demand.Clone())
	}
	for i := len(s.instances) - 1; i >= 0; i-- {
		s.instances[i].mu.Unlock()
	}
	s.mu.Unlock()

	pending.Fold()
	cp.Pending = appendEntries(nil, pending)
	if err := s.wal.WriteCheckpoint(cp); err != nil {
		s.walErrors.Inc()
	}
	for _, d := range waiters {
		close(d)
	}
}

// queuedFromSnapshot renders one queued slot snapshot as its durable
// form.
func queuedFromSnapshot(snap *slotSnapshot) wal.QueuedSlot {
	return wal.QueuedSlot{Slot: snap.slot, Requests: snap.requests, Entries: appendEntries(nil, snap.demand)}
}

// appendEntries appends d's entries to out, one per (hotspot, video)
// pair, ascending: d's rows are video-ascending already.
func appendEntries(out []wal.Entry, d *core.Demand) []wal.Entry {
	for h := 0; h < d.NumHotspots(); h++ {
		d.Each(h, func(v trace.VideoID, n int64) {
			out = append(out, wal.Entry{Hotspot: h, Video: int(v), Count: n})
		})
	}
	return out
}

// Kill terminates the server the way a crash would: listeners are
// closed abruptly (in-flight requests are cut off), no final flush
// runs, no checkpoint is written, and the WAL drops whatever is still
// buffered in user space. Only the crash-recovery harnesses use it;
// state recovery after Kill must come entirely from the durable
// prefix. Kill is idempotent and mutually idempotent with Close.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.killed.Store(true)
	for _, in := range s.instances {
		if in.httpSrv != nil {
			in.httpSrv.Close()
		}
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	if s.wal != nil {
		s.wal.Crash()
	}
}

// WALState reports the recovery summary of this server's boot (nil
// when durability is off or the directory was fresh and empty).
func (s *Server) WALState() *wal.State { return s.walState }
