// Package server is the online scheduling service: the deployable
// counterpart of the offline trace-driven simulator. User requests
// arrive continuously over HTTP/JSON at one or more frontend
// instances and are aggregated per hotspot straight into the slot's
// core.Demand, one bounded accumulator per frontend (overload answers
// 429, and accepted requests are never dropped); a slot ticker takes
// the accumulated demand each timeslot, runs one RBCAer round
// (core.ScheduleRound with core.DefaultParams, degrading instead of
// failing on solver trouble) on a dedicated worker, and publishes the
// result by atomically swapping in one serving table, the plan's router
// (core.Router, the simulator's routing rule) — lookups never observe a
// partially applied plan and keep serving the previous
// plan while the next one is computed. Fed the same trace, the server produces plans
// byte-identical to the offline simulator's (certified end to end in
// e2e_test.go via core.Plan.Canonical).
//
// Multi-instance mode (Config.Instances > 1) scales the serving tier
// out in-process: hotspot ingestion is sharded across N frontend
// instances, each with its own accumulator and its own HTTP listener.
// A request may arrive at any frontend; its hotspot h is accumulated at
// instance h mod N (cross-instance arrivals are counted as forwards).
// Each slot merges every instance's handed-over demand (disjoint
// hotspots, so whole rows change owner) into the single scheduler
// round, and the resulting plan fans out to every frontend: its
// canonical bytes are verified once against their digest by a strict
// one-pass decode (core.VerifyCanonical), one serving table is built
// from them, and every frontend's plan pointer is swapped to
// that same table. Every frontend serves the exact (epoch, digest) the
// scheduler published, or all of them loudly refuse the epoch
// (server.shard.<i>.plan_rejects) and keep their previous plan. See
// DESIGN.md §15.
//
// The package is dependency-free: stdlib net/http plus this
// repository's internal packages.
package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Server is one online scheduling service deployment: one scheduler
// plus Config.Instances frontend instances. Create it with New, start
// it with Start, stop it with Close.
type Server struct {
	cfg   Config
	world *trace.World
	index *geo.Grid
	reg   *obs.Registry

	// instances are the frontends (owner maps a hotspot to one), whose
	// demand every slot boundary collects in instance order.
	instances []*instance

	// mu guards the snapshot queue, slot counter, plan history, the
	// closed flag, and the checkpoint cadence state.
	mu      sync.Mutex
	queue   []*slotSnapshot
	slot    int
	epoch   int64
	history []planEntry
	closed  bool

	// Durability (nil / zero when Config.WALDir is empty). lastPlan is
	// the most recently published plan in checkpoint form; sinceCkpt
	// counts slot outcomes (plan, roundErr or empty advance) since the
	// last checkpoint; ckptWaiters are the done channels of empty slots
	// whose due checkpoint the worker has yet to write; killed marks a
	// simulated crash (Kill), which must skip all graceful-shutdown
	// work.
	wal         *wal.Log
	walState    *wal.State
	lastPlan    *wal.PlanState
	sinceCkpt   int
	ckptWaiters []chan struct{}
	killed      atomic.Bool
	walErrors   *obs.Counter

	// kick wakes the recompute worker (capacity 1: a pending kick
	// covers any number of queued snapshots).
	kick chan struct{}
	// stop ends the ticker and, after the queue drains, the worker.
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// sched is owned by the recompute worker goroutine.
	sched *core.Scheduler

	// cached hot-path counters (a registry lookup per request would
	// cost a map access under lock on the ingest fast path).
	ingestAccepted  *obs.Counter
	ingestRejected  *obs.Counter
	lookupTotal     *obs.Counter
	lookupCDN       *obs.Counter
	lookupRedirect  *obs.Counter
	lookupLocal     *obs.Counter
	ingestMalformed *obs.Counter
}

// planEntry is one retained plan: its record, Canonical left empty,
// and the canonical bytes (shared with lastPlan) that Plans
// hex-encodes when read.
type planEntry struct {
	rec       PlanRecord
	canonical []byte
}

// slotSnapshot is one timeslot's handed-over demand awaiting
// recomputation.
type slotSnapshot struct {
	slot     int
	demand   *core.Demand
	requests int64
	start    time.Time
	// done channels are closed once this snapshot's plan is live (or
	// the snapshot turned out empty); AdvanceSlot waits on one.
	done []chan struct{}
}

// New validates the configuration and builds a server (not yet
// listening).
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	index, err := cfg.World.Index()
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	sched, err := core.New(cfg.World, core.DefaultParams())
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		world: cfg.World,
		index: index,
		reg:   cfg.Registry,
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		sched: sched,
	}
	s.ingestAccepted = s.reg.Counter("server.ingest.accepted")
	s.ingestRejected = s.reg.Counter("server.ingest.rejected")
	s.ingestMalformed = s.reg.Counter("server.ingest.malformed")
	s.lookupTotal = s.reg.Counter("server.lookup.total")
	s.lookupCDN = s.reg.Counter("server.lookup.cdn")
	s.lookupRedirect = s.reg.Counter("server.lookup.redirected")
	s.lookupLocal = s.reg.Counter("server.lookup.local")
	for i := 0; i < cfg.Instances; i++ {
		s.instances = append(s.instances, newInstance(s, i))
	}
	s.walErrors = s.reg.Counter("server.wal.errors")
	if cfg.WALDir != "" {
		if err := s.openWAL(); err != nil {
			if s.wal != nil {
				s.wal.Close() // a refused recovery must not leak the log or its flusher
			}
			return nil, fmt.Errorf("server: wal: %w", err)
		}
	}
	return s, nil
}

// Start launches the recompute worker, every frontend instance's HTTP
// listener (instance 0 on cfg.Addr, the rest on ephemeral local
// ports), and, when SlotDuration is set, the slot ticker.
func (s *Server) Start() error {
	for _, in := range s.instances {
		addr := s.cfg.Addr
		if in.id > 0 {
			addr = "127.0.0.1:0"
		}
		if err := in.listen(addr); err != nil {
			for _, started := range s.instances[:in.id] {
				started.shutdown(context.Background())
			}
			return err
		}
	}
	s.wg.Add(1)
	go s.recomputeLoop()
	// Recovery may have re-enqueued drained-but-unplanned slots; get
	// the worker onto them immediately.
	s.mu.Lock()
	pending := len(s.queue) > 0
	s.mu.Unlock()
	if pending {
		s.wake()
	}
	if s.cfg.SlotDuration > 0 {
		s.wg.Add(1)
		go s.tickLoop()
	}
	return nil
}

// Addr returns the first frontend's listen address (useful with
// port 0).
func (s *Server) Addr() string {
	return s.InstanceAddr(0)
}

// NumInstances returns the frontend instance count.
func (s *Server) NumInstances() int { return len(s.instances) }

// InstanceAddr returns frontend i's listen address ("" before Start).
func (s *Server) InstanceAddr(i int) string {
	in := s.instances[i]
	if in.ln == nil {
		return ""
	}
	return in.ln.Addr().String()
}

// InstanceHandler returns frontend i's HTTP API without a socket (for
// tests and benchmarks).
func (s *Server) InstanceHandler(i int) http.Handler {
	return s.instances[i].handler()
}

// InstanceEpochDigest reports the (epoch, digest) frontend i is
// currently serving (0, "" before the first swap).
func (s *Server) InstanceEpochDigest(i int) (int64, string) {
	sp := s.instances[i].current.Load()
	if sp == nil {
		return 0, ""
	}
	return sp.epoch, digestString(sp.digest)
}

// Close shuts the server down gracefully: stop accepting requests on
// every frontend (bounded by DrainTimeout), flush still-accumulated
// demand through one final scheduling round so no accepted request is
// silently dropped, and wait for the ticker and worker to exit. Close
// is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	var err error
	for _, in := range s.instances {
		if e := in.shutdown(ctx); e != nil && err == nil {
			err = e
		}
	}
	// Final flush: anything accepted before shutdown still gets
	// scheduled and recorded.
	s.advance(nil, true)
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	if s.wal != nil {
		// Seal the run: a final checkpoint makes the next boot's replay
		// trivial, then the log closes cleanly (flush + fsync).
		s.maybeCheckpoint(true)
		if e := s.wal.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// tickLoop drives timed slots. The tick itself only collects the
// frontends' demand and enqueues a snapshot — recomputation happens on
// the worker — so a slow scheduling round can never block the ticker.
func (s *Server) tickLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SlotDuration)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.advance(nil, false)
		case <-s.stop:
			return
		}
	}
}

// advance closes out the current timeslot: it takes every instance's
// accumulated demand as one snapshot — with one frontend the very
// object ingest filled, with more their row-wise merge — enqueues it
// for the recompute worker, and returns the slot number. An empty slot
// (nothing accepted) advances the slot counter without queueing work.
// done, when non-nil, is closed once the snapshot's plan is live; for
// an empty slot, at once, or once the worker has written the
// checkpoint the slot made due.
//
// After Close has marked the server closed, only Close's own final
// flush (final=true) may still advance: a tick or AdvanceSlot racing
// Close could otherwise enqueue a snapshot after the worker drained the
// queue for the last time, stranding accepted demand unscheduled and
// leaving AdvanceSlot waiters hanging. Late advances are rejected
// (ok=false, done left open) and counted as server.slots.rejected.
func (s *Server) advance(done chan struct{}, final bool) (slot int, ok bool) {
	s.mu.Lock()
	if s.closed && !final {
		s.mu.Unlock()
		s.reg.Counter("server.slots.rejected").Inc()
		return 0, false
	}
	slot = s.slot
	s.slot++
	// Durability ordering: the advance record is appended *before*
	// handOver re-stamps the frontends' slot tags, so in WAL order an
	// ingest tagged with the new slot can never precede this boundary
	// (the tag is read and the ingest appended under the frontend's
	// lock, which handOver also takes).
	var advLSN uint64
	var advErr error
	if s.wal != nil {
		advLSN, advErr = s.wal.AppendAdvance(slot)
	}
	var demand *core.Demand
	var n int64
	for _, in := range s.instances {
		d, k := in.handOver(s.slot)
		if demand == nil {
			demand = d
		} else if d != nil {
			demand.Merge(d)
		}
		n += k
	}
	if demand != nil {
		demand.Fold() // the rows several frontends held, merged
	}
	s.reg.Counter("server.slots").Inc()
	if demand == nil {
		s.reg.Counter("server.slots.empty").Inc()
		// The empty slot counts toward the checkpoint cadence, but the
		// worker alone writes checkpoints: it may be mid-round on a
		// snapshot that is in neither s.queue nor any frontend, which a
		// capture from here would lose. A due checkpoint is left to the
		// worker, and done waits for it.
		due := false
		if s.wal != nil {
			s.sinceCkpt++
			due = s.checkpointDue()
		}
		if due && done != nil {
			s.ckptWaiters = append(s.ckptWaiters, done)
		}
		s.mu.Unlock()
		s.syncWAL(advLSN, advErr)
		if due {
			s.wake()
		} else if done != nil {
			close(done)
		}
		return slot, true
	}
	s.reg.Histogram("server.slot.requests", obs.PowersOf2Buckets(24)).Observe(n)
	snap := &slotSnapshot{slot: slot, demand: demand, requests: n, start: time.Now()}
	if done != nil {
		snap.done = append(snap.done, done)
	}
	if len(s.queue) >= maxSnapshotQueue {
		// The worker is lagging: coalesce into the newest queued
		// snapshot instead of growing the queue or blocking. The
		// merged demand schedules under the newer slot number; no
		// accepted request is lost. Its plan record is the older
		// slot's outcome too: recovery counts every slot at or below
		// a durable outcome consumed, because this worker drains in
		// FIFO order.
		last := s.queue[len(s.queue)-1]
		last.demand.Merge(demand)
		last.demand.Fold()
		last.requests += n
		last.slot = slot
		last.done = append(last.done, snap.done...)
		s.reg.Counter("server.slots.coalesced").Inc()
	} else {
		s.queue = append(s.queue, snap)
	}
	s.mu.Unlock()
	s.syncWAL(advLSN, advErr)
	s.wake()
	return slot, true
}

// wake kicks the recompute worker without blocking.
func (s *Server) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// AdvanceSlot forces a slot boundary and blocks until the slot's plan
// (if any demand accumulated) is live, or the checkpoint an empty slot
// made due is written, returning the slot number and the plan record
// now serving. This is the deterministic drive used by the load
// generator, tests, and manual-slot deployments (SlotDuration 0); it
// also works alongside a running ticker.
func (s *Server) AdvanceSlot(ctx context.Context) (int, PlanRecord, error) {
	done := make(chan struct{})
	slot, ok := s.advance(done, false)
	if !ok {
		return 0, PlanRecord{}, errors.New("server: closed")
	}
	select {
	case <-done:
	case <-s.stop:
		return slot, PlanRecord{}, errors.New("server: shutting down")
	case <-ctx.Done():
		return slot, PlanRecord{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var rec PlanRecord
	if len(s.history) > 0 {
		rec = s.history[len(s.history)-1].rec
	}
	return slot, rec, nil
}

// recomputeLoop is the single scheduling worker: it owns the core
// scheduler (which is not safe for concurrent use) and processes
// queued snapshots in order, fanning each resulting plan out to every
// frontend.
func (s *Server) recomputeLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.kick:
			s.drainQueue()
		case <-s.stop:
			// Process whatever Close's final flush queued, then exit.
			s.drainQueue()
			return
		}
	}
}

// drainQueue schedules every queued snapshot, then writes the
// checkpoint that empty slots made due, if any: between rounds, where
// every accepted request is in s.queue, a frontend, or a durable
// outcome. After Kill, nothing is scheduled: a simulated crash must
// leave only the durable prefix behind.
func (s *Server) drainQueue() {
	for {
		if s.killed.Load() {
			return
		}
		s.mu.Lock()
		if len(s.queue) == 0 {
			due := s.checkpointDue()
			s.mu.Unlock()
			if due {
				s.writeCheckpoint()
			}
			return
		}
		snap := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.runSlot(snap)
	}
}

// runSlot runs one scheduling round and distributes the plan to every
// frontend. The round sees the same inputs the offline policy hands
// core.ScheduleRound — the zero Constraints are the world's nominal
// service and cache capacity rows — so a replayed trace produces
// byte-identical plans (see e2e_test.go). Distribution is publish:
// the canonical plan bytes plus their digest, verified once, serving
// every frontend from one table.
func (s *Server) runSlot(snap *slotSnapshot) {
	defer func() {
		for _, d := range snap.done {
			close(d)
		}
	}()
	plan, err := s.sched.ScheduleRound(snap.demand, core.Constraints{})
	if err != nil {
		// Contract violations only (ScheduleRound degrades instead of
		// failing on solver trouble): keep serving the previous plan.
		// The drop is made durable (roundErr record) so recovery does
		// not resurrect and reschedule the slot's demand.
		s.reg.Counter("server.plan.errors").Inc()
		if s.wal != nil {
			lsn, aerr := s.wal.AppendRoundErr(snap.slot)
			s.syncWAL(lsn, aerr)
		}
		s.maybeCheckpoint(false)
		return
	}

	s.mu.Lock()
	s.epoch++
	epoch := s.epoch
	s.mu.Unlock()

	// Plan distribution: the canonical bytes and digest go through
	// publish, one verify and the one install path. With durability
	// on, the plan is logged and synced first — a plan is never served
	// unless it is part of the durable prefix. A refusal is counted
	// and traced inside publish; the previous plan keeps serving.
	canonical := plan.Canonical()
	digest := core.DigestOf(canonical)
	if s.wal != nil {
		lsn, aerr := s.wal.AppendPlan(snap.slot, epoch, digest, canonical)
		s.syncWAL(lsn, aerr)
	}
	_ = s.publish(epoch, snap.slot, canonical, digest)

	s.reg.Counter("server.plan.swaps").Inc()
	if plan.Degraded {
		s.reg.Counter("server.plan.degraded").Inc()
	}
	latency := time.Since(snap.start)
	// Microsecond buckets: small rounds finish in well under a
	// millisecond, and 2^24 µs ≈ 16.8 s covers the slowest degraded one.
	s.reg.Histogram("server.slot.latency_us", obs.PowersOf2Buckets(24)).Observe(latency.Microseconds())
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Emit(obs.Event{Type: "swap", Slot: snap.slot, Attrs: []obs.Attr{
			obs.I("epoch", epoch),
			obs.I("requests", snap.requests),
			obs.I("replicas", plan.Stats.Replicas),
			obs.I("degraded", boolAttr(plan.Degraded)),
			obs.D("latency", latency),
		}})
	}

	rec := PlanRecord{
		Slot:      snap.slot,
		Epoch:     epoch,
		Requests:  snap.requests,
		Digest:    digestString(digest),
		Degraded:  plan.Degraded,
		Replicas:  plan.Stats.Replicas,
		Redirects: len(plan.Redirects),
		MovedFlow: plan.Stats.MovedFlow,
		Stranded:  plan.Stats.StrandedToCDN,
	}
	s.mu.Lock()
	s.history = append(s.history, planEntry{rec: rec, canonical: canonical})
	if len(s.history) > s.cfg.PlanHistory {
		s.history = s.history[len(s.history)-s.cfg.PlanHistory:]
	}
	if s.wal != nil {
		s.lastPlan = &wal.PlanState{Slot: snap.slot, Epoch: epoch, Digest: digest, Canonical: canonical}
	}
	s.mu.Unlock()
	s.maybeCheckpoint(false)
}

// publish is the live fan-out's install path (runSlot): it verifies
// the canonical bytes against the advertised digest once
// (core.VerifyCanonical) and installs the decoded plan. Bytes that
// fail the verify are refused like a plan install refuses.
func (s *Server) publish(epoch int64, slot int, canonical []byte, digest uint64) error {
	t0 := time.Now()
	plan, err := core.VerifyCanonical(canonical, digest)
	if err != nil {
		return s.refuse(epoch, slot, err)
	}
	return s.install(t0, epoch, slot, plan, digest)
}

// install is the one install path, for the live fan-out (publish) and
// the recovered plan (openWAL, which WAL recovery verified and decoded)
// alike: it builds one serving table — the plan's router — and stores
// that same pointer into every frontend. A plan that does not fit the
// world (checkFits) or that reserves more inflow at a hotspot than its
// nominal capacity (core.NewRouter) is refused. server.slot.install_us
// times a successful install from t0: for the live path the decode
// too, then the router build and the stores.
func (s *Server) install(t0 time.Time, epoch int64, slot int, plan *core.DecodedPlan, digest uint64) error {
	err := checkFits(plan, len(s.world.Hotspots), s.world.NumVideos)
	var sp *servingPlan
	if err == nil {
		sp, err = newServingPlan(epoch, slot, plan, digest, s.world)
	}
	if err != nil {
		return s.refuse(epoch, slot, err)
	}
	for _, in := range s.instances {
		in.current.Store(sp)
		in.swaps.Inc()
	}
	s.reg.Histogram("server.slot.install_us", obs.PowersOf2Buckets(24)).Observe(time.Since(t0).Microseconds())
	return nil
}

// refuse accounts a refused epoch: every frontend stays on its
// previous plan, and the refusal counts once per frontend
// (server.shard.<i>.plan_rejects) and once for the epoch
// (server.plan.rejects), with one swap-reject event.
func (s *Server) refuse(epoch int64, slot int, err error) error {
	for _, in := range s.instances {
		in.rejects.Inc()
	}
	s.reg.Counter("server.plan.rejects").Inc()
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Emit(obs.Event{Type: "swap-reject", Slot: slot, Attrs: []obs.Attr{
			obs.I("epoch", epoch),
			obs.I("instances", int64(len(s.instances))),
		}})
	}
	return fmt.Errorf("server: epoch %d: %w", epoch, err)
}

// Plans returns the retained per-slot plan records, oldest first.
func (s *Server) Plans() []PlanRecord {
	// Hex-encode outside s.mu: the history may hold every slot of a run.
	s.mu.Lock()
	hist := slices.Clone(s.history)
	s.mu.Unlock()
	out := make([]PlanRecord, len(hist))
	for i, e := range hist {
		out[i] = e.rec
		out[i].Canonical = hex.EncodeToString(e.canonical)
	}
	return out
}

// Handler returns the first frontend's HTTP API:
//
//	POST /ingest         accept one request ({"user","video","x","y"}
//	                     or {"user","video","hotspot"}) — 202 accepted,
//	                     429 overloaded (frontend queue full), 400 malformed
//	GET  /redirect       ?video=V&hotspot=H → serving target for one
//	                     request aggregated at H ({"target":-1} = CDN)
//	GET  /plans          retained per-slot plan records (canonical bytes)
//	GET  /healthz        liveness + slot/epoch counters + this
//	                     frontend's serving (epoch, digest) and its
//	                     accepted-but-unscheduled request count
//	POST /admin/advance  force a slot boundary; returns the new record
//
// Every frontend instance serves the same API (see InstanceHandler).
// It is exported so tests and benchmarks can drive the mux without a
// socket.
func (s *Server) Handler() http.Handler {
	return s.instances[0].handler()
}

func (s *Server) handlePlans(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Plans())
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	slot, rec, err := s.AdvanceSlot(r.Context())
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	scheduled := rec.Epoch != 0 && rec.Slot == slot
	writeJSON(w, http.StatusOK, map[string]any{
		"slot":      slot,
		"scheduled": scheduled,
		"epoch":     rec.Epoch,
		"digest":    rec.Digest,
	})
}

// boolAttr renders a bool as a 0/1 event attribute value.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
