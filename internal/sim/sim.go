// Package sim is the trace-driven crowdsourced-CDN simulator. It
// replays a request trace slot by slot against a world, invokes a
// pluggable scheduling policy each slot, strictly enforces the paper's
// constraints (a request is served by a hotspot only if the video is
// placed there and service capacity remains, otherwise by the origin
// CDN server), and accumulates the paper's four evaluation metrics:
// hotspot serving ratio, average content access distance, content
// replication cost, and CDN server load.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CDN is the sentinel target meaning "served by the origin CDN server".
const CDN = core.CDN

// SlotContext carries everything a scheduling policy may use for one
// timeslot.
type SlotContext struct {
	World *trace.World
	// Index is a spatial index over the world's hotspots.
	Index *geo.Grid
	// Slot is the timeslot number.
	Slot int
	// Requests are this slot's requests.
	Requests []trace.Request
	// Nearest[r] is the nearest hotspot of Requests[r] (the paper's
	// aggregation point).
	Nearest []int
	// Demand is the per-hotspot per-video aggregation of Requests.
	// Policies running on predicted demand may ignore it.
	Demand *core.Demand
	// Capacity[h] is hotspot h's effective service capacity this slot:
	// normally World.Hotspots[h].ServiceCapacity, but 0 for hotspots
	// the injected faults take offline, and scaled down under
	// capacity degradation. Policies must budget against this, not the
	// world's nominal capacity.
	Capacity []int64
	// CacheCapacity[h] is hotspot h's effective cache capacity this
	// slot, when injected faults degrade it; nil means nominal. The
	// slice is shared — policies must not mutate it. Use
	// EffectiveCacheCapacity for a nil-safe view.
	CacheCapacity []int
	// Rand is the slot's deterministic randomness source.
	Rand *rand.Rand
}

// EffectiveCapacity returns ctx.Capacity, falling back to the world's
// nominal capacities for contexts built without the field.
func (ctx *SlotContext) EffectiveCapacity() []int64 {
	if ctx.Capacity != nil {
		return ctx.Capacity
	}
	return ctx.World.ServiceCapacities()
}

// EffectiveCacheCapacity returns ctx.CacheCapacity, falling back to the
// world's nominal cache capacities when no fault degrades them. The
// returned slice may be shared — callers must not mutate it.
func (ctx *SlotContext) EffectiveCacheCapacity() []int {
	if ctx.CacheCapacity != nil {
		return ctx.CacheCapacity
	}
	return ctx.World.CacheCapacities()
}

// Assignment is a policy's decision for one slot.
type Assignment struct {
	// Placement is the videos each hotspot caches this slot, row h
	// hotspot h's.
	Placement core.PlacementRuns
	// Target[r] is the hotspot index that should serve Requests[r], or
	// CDN. The simulator enforces feasibility: an infeasible target
	// (video not placed, capacity exhausted) falls back to the CDN and
	// is counted in Metrics.Infeasible.
	Target []int
	// Degraded reports that the policy produced this assignment under
	// degraded conditions (a recovered solver failure: RBCAer copies
	// Plan.Degraded here).
	// The simulator counts such slots in Metrics.DegradedRounds.
	Degraded bool
	// StrandedDemand is the workload the policy knowingly abandoned to
	// the CDN this slot (RBCAer reports Stats.StrandedToCDN here).
	StrandedDemand int64
	// Phases is the slot's wall-clock scheduling-phase breakdown, when
	// the policy collects one (RBCAer under observability); zero
	// otherwise. Accumulated into Metrics.Phases.
	Phases obs.PhaseTimings
	// Events are the slot's structured trace events, when the policy
	// records them (core.Params.RecordEvents). The simulator flushes
	// them to Options.Tracer in slot order from its sequential
	// epilogue, so the event stream is identical for Run and
	// RunParallel at any worker count.
	Events []obs.Event
	// Plan, when non-nil, is the core scheduling plan this assignment
	// was materialised from (RBCAer sets it; baselines leave it nil).
	// The simulator forwards it to Options.PlanSink and otherwise
	// ignores it.
	Plan *core.Plan
}

// Scheduler is a request-redirection and content-placement policy. The
// simulator may run an instance's next Schedule while it still applies
// the instance's previous Assignment (and sinks its Plan), so a
// returned Assignment must not share memory the policy writes later.
type Scheduler interface {
	// Name identifies the policy in reports ("RBCAer", "Nearest", ...).
	Name() string
	// Schedule decides one slot.
	Schedule(ctx *SlotContext) (*Assignment, error)
}

// Metrics are the paper's evaluation metrics accumulated over a run.
type Metrics struct {
	Scheme string

	TotalRequests   int64
	ServedByHotspot int64
	ServedByCDN     int64
	// Infeasible counts hotspot targets the simulator had to bounce to
	// the CDN (video missing or capacity exhausted). A correct policy
	// keeps this near zero; it is part of ServedByCDN.
	Infeasible int64

	// HotspotServingRatio is ServedByHotspot / TotalRequests.
	HotspotServingRatio float64
	// AvgAccessDistanceKm averages the request→server distance, with
	// World.CDNDistanceKm charged for CDN-served requests.
	AvgAccessDistanceKm float64
	// Replicas is the number of videos pushed to hotspot caches over
	// the run (new placements only; carrying a cached video across
	// slots is free).
	Replicas int64
	// ReplicationCost is Replicas / World.NumVideos (the paper's
	// normalisation: multiples of the entire video set).
	ReplicationCost float64
	// CDNServerLoad is (ServedByCDN + Replicas) / TotalRequests: origin
	// egress for misses plus replica pushes, normalised by the
	// original workload.
	CDNServerLoad float64

	// PerHotspotLoad[h] is the nearest-aggregated workload λ_h summed
	// over slots (the Fig. 2 distribution under Nearest routing).
	PerHotspotLoad []int64
	// PerHotspotServed[h] is the number of requests actually served by
	// hotspot h over the run.
	PerHotspotServed []int64

	// OfflineHotspotSlots counts the (hotspot, slot) pairs Options.Faults
	// took offline, over the non-empty slots. Each pair has exactly one
	// cause; the per-cause split is the fault.cause.* counters.
	OfflineHotspotSlots int64
	// FlashInjectedRequests is the number of synthetic requests
	// flash-crowd faults added to the trace (part of TotalRequests).
	FlashInjectedRequests int64
	// DegradedRounds counts slots whose assignment was produced under
	// degraded conditions (Assignment.Degraded).
	DegradedRounds int64
	// StrandedRequests is the total workload policies knowingly
	// abandoned to the CDN (Σ Assignment.StrandedDemand).
	StrandedRequests int64
	// FallbackServedByCDN is the number of requests the CDN absorbed
	// during degraded rounds (part of ServedByCDN).
	FallbackServedByCDN int64

	// SchedulingTime is the total time spent inside Scheduler.Schedule.
	SchedulingTime time.Duration
	// Phases accumulates the per-slot scheduling-phase breakdown
	// (Assignment.Phases) over the run. Zero for policies that do not
	// report phases. Wall-clock: not part of the determinism contract.
	Phases obs.PhaseTimings
	// WallTime is the run's total wall clock (the "simulate" phase).
	// On several workers it can be shorter than SchedulingTime, which
	// sums the concurrent per-slot rounds.
	WallTime time.Duration
}

// SlotMetrics is one timeslot's slice of the run metrics.
type SlotMetrics struct {
	Slot            int
	Requests        int64
	ServedByHotspot int64
	ServedByCDN     int64
	Replicas        int64
	// HotspotServingRatio is ServedByHotspot / Requests for this slot.
	HotspotServingRatio float64
	// Infeasible counts this slot's hotspot targets bounced to the CDN.
	Infeasible int64
	// Stranded is the workload the policy knowingly abandoned to the
	// CDN this slot (Assignment.StrandedDemand).
	Stranded int64
	// Degraded reports the slot's assignment was produced under
	// degraded conditions (or the whole fleet was offline).
	Degraded bool
}

// Options configure a simulation run.
type Options struct {
	// Seed drives per-slot randomness handed to policies.
	Seed int64
	// Faults optionally injects structured failures — Markov session
	// churn, correlated regional outages, capacity degradation, flash
	// crowds, stale load reports. Offline hotspots disappear from the
	// slot's index — requests aggregate to the nearest online hotspot —
	// and serve nothing; their cache contents survive for when they
	// return. I.i.d. churn with probability p is MarkovChurn{p, 1 − p}.
	// The scenario is compiled into a deterministic per-slot timeline
	// from Seed, so runs are reproducible across Run, RunParallel, and
	// any worker count. Nil injects nothing.
	Faults *fault.Scenario
	// Registry, when non-nil, receives the run's metrics (sim.*
	// counters, plus sim.phase.* wall-clock timers) at the end of the
	// run. The deterministic snapshot (Registry.Snapshot(false)) is
	// byte-identical across Run/RunParallel and any worker count.
	Registry *obs.Registry
	// Tracer, when non-nil, receives per-slot trace events: whatever
	// the policy recorded on Assignment.Events plus one "slot" summary
	// event per applied slot. Events are flushed in slot order from the
	// sequential epilogue, so the sequence is worker-count independent
	// (byte-identical JSONL with a dropTimings tracer).
	Tracer *obs.Tracer
	// PlanSink, when non-nil, receives each scheduled slot's core plan
	// in slot order from the sequential epilogue, for policies that
	// expose one (Assignment.Plan — RBCAer does). Slots scheduled by
	// plan-less policies and all-offline slots are skipped. Like the
	// tracer stream, the (slot, plan) sequence is identical for Run and
	// RunParallel at any worker count; the online serving layer's e2e
	// harness compares these plans byte-for-byte against the ones it
	// computed live (see internal/server).
	PlanSink func(slot int, plan *core.Plan)
	// SlotSink, when non-nil, receives each applied slot's metrics in
	// slot order from the sequential epilogue — the hook scenario
	// assertions evaluate on during the run. Returning a non-nil error
	// aborts the run with that error (fail-fast scenarios). Like the
	// tracer stream, the SlotMetrics sequence is identical for Run and
	// RunParallel at any worker count.
	SlotSink func(SlotMetrics) error
}

// Validate checks the options.
func (o Options) Validate() error {
	if err := o.Faults.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// Run replays the trace against the world under the policy and returns
// aggregate metrics.
func Run(world *trace.World, tr *trace.Trace, policy Scheduler, opts Options) (*Metrics, error) {
	if policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	return run(world, tr, []Scheduler{policy}, opts)
}

// RunParallel is Run with the per-slot scheduling rounds — the
// simulation's dominant cost — executed concurrently on up to workers
// goroutines (0 selects GOMAXPROCS; 1 is Run). Each worker schedules
// with its own policy instance from newPolicy, so policies need not be
// safe for concurrent use, and everything order-sensitive (replica
// accounting against the previous slot's placement, request serving,
// metric accumulation) still runs sequentially in slot order.
// The metrics are therefore identical to Run's — including float
// accumulation order — whenever each policy instance's decisions depend
// only on the slot it is handed. Policies that carry state across slots
// (demand predictors, RBCAer's delta rounds) would observe every
// workers-th slot only; run those on one worker.
func RunParallel(world *trace.World, tr *trace.Trace, newPolicy func() Scheduler, workers int, opts Options) (*Metrics, error) {
	if newPolicy == nil {
		return nil, fmt.Errorf("sim: nil policy factory")
	}
	policies := make([]Scheduler, par.Workers(workers))
	for k := range policies {
		if policies[k] = newPolicy(); policies[k] == nil {
			return nil, fmt.Errorf("sim: policy factory returned nil")
		}
	}
	return run(world, tr, policies, opts)
}

// run validates the inputs, compiles the faults, drives the slot
// pipeline over W = len(policies) instances and finalises the metrics.
func run(world *trace.World, tr *trace.Trace, policies []Scheduler, opts Options) (*Metrics, error) {
	runStart := time.Now()
	if err := validateRun(world, tr, opts); err != nil {
		return nil, err
	}
	tr, tl, injected, err := compileFaults(world, tr, opts)
	if err != nil {
		return nil, err
	}
	index, err := world.Index()
	if err != nil {
		return nil, err
	}

	metrics := &Metrics{
		Scheme:                policies[0].Name(),
		PerHotspotLoad:        make([]int64, len(world.Hotspots)),
		PerHotspotServed:      make([]int64, len(world.Hotspots)),
		FlashInjectedRequests: injected,
	}
	distanceSum, err := pipeline(world, index, tl, tr.BySlot(), policies, opts, metrics)
	if err != nil {
		return nil, err
	}
	finalizeMetrics(world, metrics, distanceSum)
	metrics.WallTime = time.Since(runStart)
	publishRunMetrics(opts.Registry, metrics)
	return metrics, nil
}

// pipeline is the simulator's one slot loop, three stages over the
// non-empty slots:
//
//  1. one goroutine, in slot order: prepareSlot, then the slot's
//     context (buildContext);
//  2. the i-th non-empty slot's round on policies[i mod W], one
//     goroutine per instance, so an instance sees every W-th non-empty
//     slot;
//  3. the caller's goroutine, in slot order: applySlot — replica
//     accounting, serving, metrics, sinks and tracer.
//
// Slot i's round starts only once slot i−W−1 has applied, and its
// context only once slot i−W−2 has, so at most W+2 slots are in flight;
// with one instance, slot s+1's context and slot s−1's evaluation
// overlap slot s's round. A failing round or a SlotSink abort at slot a
// stops the run: the slots ≤ a+W, whose rounds were already released,
// are still scheduled, and nothing after them. A context that cannot be
// built stops stage 1 at its slot. A panic in stage 1 or 2 is re-raised
// on the caller's goroutine when stage 3 reaches its slot, and every
// goroutine is joined before pipeline returns or panics.
func pipeline(world *trace.World, index *geo.Grid, tl *fault.Timeline, bySlot [][]trace.Request, policies []Scheduler, opts Options, metrics *Metrics) (float64, error) {
	W := len(policies)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	in, out := make([]chan *slotWork, W), make([]chan *slotWork, W)
	for k := range policies {
		in[k], out[k] = make(chan *slotWork, 1), make(chan *slotWork, 1)
	}

	wg.Add(1 + W)
	go func() {
		defer wg.Done()
		defer func() {
			for _, c := range in {
				close(c)
			}
		}()
		var applied []chan struct{} // closes once the i-th non-empty slot applied
		for slot, requests := range bySlot {
			if len(requests) == 0 {
				continue
			}
			i := len(applied)
			if i >= W+2 && !await(applied[i-W-2], stop) {
				return
			}
			w := &slotWork{slot: slot, requests: requests, applied: make(chan struct{})}
			if i >= W+1 {
				w.released = applied[i-W-1]
			}
			applied = append(applied, w.applied)
			catch(w, func() {
				prepareSlot(tl, w)
				if !w.allOffline {
					w.err = buildContext(world, index, tl, bySlot, opts, w)
				}
			})
			built := w.err == nil && w.panicked == nil
			// No select on stop: a worker drains its channel until it
			// closes, and a slot whose round was released before an
			// abort must still reach its worker.
			in[i%W] <- w
			if !built {
				return
			}
		}
	}()
	for k, policy := range policies {
		go func() {
			defer wg.Done()
			defer close(out[k])
			for w := range in[k] {
				// No context: it failed, or the whole fleet is offline.
				if w.ctx != nil && await(w.released, stop) {
					catch(w, func() { w.err = scheduleSlot(policy, w) })
				}
				select {
				case out[k] <- w:
				case <-stop:
				}
			}
		}()
	}

	var distanceSum float64
	var prevPlacement core.PlacementRuns // no rows: nothing cached yet
	for i := 0; ; i++ {
		w, ok := <-out[i%W]
		if !ok {
			return distanceSum, nil
		}
		if w.panicked != nil {
			panic(w.panicked)
		}
		if w.err != nil {
			return 0, w.err
		}
		metrics.OfflineHotspotSlots += w.offlineCount
		// SchedulingTime sums the per-slot rounds, i.e. total CPU time
		// spent scheduling, not the pipeline's wall time.
		metrics.SchedulingTime += w.took
		if err := applySlot(world, opts, metrics, w, prevPlacement, &distanceSum); err != nil {
			return 0, err
		}
		if w.asg != nil {
			prevPlacement = w.asg.Placement
		}
		close(w.applied)
	}
}

// await blocks until gate closes (true) or stop does (false); a nil
// gate is open. A gate closed before stop still reads open, since stage
// 3 closes a slot's gate before it can close stop, so an abort never
// withdraws a round it had already released.
func await(gate, stop <-chan struct{}) bool {
	if gate == nil {
		return true
	}
	select {
	case <-gate:
		return true
	case <-stop:
		select {
		case <-gate:
			return true
		default:
			return false
		}
	}
}

// catch runs f, recording a panic out of it on w for stage 3 to re-raise
// on the caller's goroutine.
func catch(w *slotWork, f func()) {
	defer func() {
		if r := recover(); r != nil {
			w.panicked = r
		}
	}()
	f()
}

// slotWork carries one non-empty timeslot through the pipeline's three
// stages. Each stage writes its fields before handing w on over a
// channel, so no field is shared.
type slotWork struct {
	slot     int
	requests []trace.Request
	// released is closed once the non-empty slot W+1 places earlier has
	// applied (nil: nothing to wait for); applied is this slot's.
	released <-chan struct{}
	applied  chan struct{}
	offline  []bool // nil when no hotspot is offline
	// offlineCount is how many hotspots the faults took offline this
	// slot; stage 3 adds it to Metrics.OfflineHotspotSlots.
	offlineCount int64
	allOffline   bool
	// svc is the slot's degraded per-hotspot service-capacity base row
	// (before offline zeroing); nil means nominal. Shared with the
	// fault timeline — never mutated.
	svc []int64
	// cache is the slot's degraded per-hotspot cache capacities; nil
	// means nominal. Shared with the fault timeline — never mutated.
	cache []int
	// actual is the slot's true aggregated demand, kept for metrics
	// when ctx.Demand carries the stale reported view.
	actual   *core.Demand
	ctx      *SlotContext
	asg      *Assignment
	took     time.Duration
	err      error
	panicked any // a panic recovered in stage 1 or 2
}

// compileFaults expands Options.Faults against the run: flash crowds
// are injected into the trace up front (a pure transform, so demand is
// identical however slots are later scheduled) and everything else is
// compiled into a deterministic per-slot timeline. A run without
// faults returns the inputs untouched.
func compileFaults(world *trace.World, tr *trace.Trace, opts Options) (*trace.Trace, *fault.Timeline, int64, error) {
	if opts.Faults == nil || opts.Faults.Empty() {
		return tr, nil, 0, nil
	}
	tr, injected, err := fault.InjectFlashCrowds(tr, opts.Faults)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("sim: %w", err)
	}
	tl, err := fault.Compile(world, tr.Slots, opts.Seed, opts.Faults)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("sim: %w", err)
	}
	// Per-family fault counters are a pure function of the compiled
	// timeline, published once per run: fault.cause.churn/outage/
	// degradation/stale_drops from the timeline, fault.cause.flash for
	// the trace-level injection. Deterministic for any worker count.
	if opts.Registry != nil {
		tl.Publish(opts.Registry)
		opts.Registry.Counter("fault.cause.flash").Add(injected)
	}
	return tr, tl, injected, nil
}

// prepareSlot reads the slot's offline mask and capacity rows off the
// fault timeline (nil in a fault-free run) and counts the slot's
// offline hotspots on w.
func prepareSlot(tl *fault.Timeline, w *slotWork) {
	if tl == nil {
		return
	}
	if causes := tl.Causes(w.slot); causes != nil {
		w.offline = make([]bool, len(causes))
		for h, c := range causes {
			if c != fault.CauseNone {
				w.offline[h] = true
				w.offlineCount++
			}
		}
		w.allOffline = w.offlineCount == int64(len(causes))
	}
	w.svc = tl.ServiceCapacities(w.slot)
	w.cache = tl.CacheCapacities(w.slot)
}

// validateRun checks a run's inputs.
func validateRun(world *trace.World, tr *trace.Trace, opts Options) error {
	if world == nil || tr == nil {
		return fmt.Errorf("sim: nil world or trace")
	}
	if err := world.Validate(); err != nil {
		return fmt.Errorf("sim: invalid world: %w", err)
	}
	if err := tr.Validate(world); err != nil {
		return fmt.Errorf("sim: invalid trace: %w", err)
	}
	return opts.Validate()
}

// buildContext builds the slot's context: it indexes only online
// hotspots under churn or faults, degrades capacities, and swaps in the
// stale reported demand when load reports lag. Everything it reads from
// w was fixed by prepareSlot.
func buildContext(world *trace.World, index *geo.Grid, tl *fault.Timeline, bySlot [][]trace.Request, opts Options, w *slotWork) error {
	slotIndex := index
	if w.offline != nil {
		slotIndex = index.Subset(func(h int) bool { return !w.offline[h] })
	}
	ctx, err := BuildSlotContext(world, slotIndex, w.slot, w.requests, stats.SplitRand(opts.Seed, fmt.Sprintf("slot-%d", w.slot)))
	if err != nil {
		return err
	}
	if w.svc != nil {
		copy(ctx.Capacity, w.svc)
	}
	if w.offline != nil {
		for h := range ctx.Capacity {
			if w.offline[h] {
				ctx.Capacity[h] = 0
			}
		}
	}
	ctx.CacheCapacity = w.cache
	w.actual = ctx.Demand
	if tl != nil && tl.Stale() {
		// The policy schedules against the load report it would have
		// received: the lagged slot's requests aggregated through
		// *today's* online index, minus reports lost in flight. The
		// simulator still serves (and accounts) the true requests.
		reported := core.NewDemand(len(world.Hotspots))
		for _, req := range bySlot[tl.ReportSlot(w.slot)] {
			h, _, ok := slotIndex.Nearest(req.Location)
			if !ok {
				continue
			}
			reported.Add(trace.HotspotID(h), req.Video, 1)
		}
		if drops := tl.DroppedReports(w.slot); drops != nil {
			for h, dropped := range drops {
				if dropped {
					reported.Clear(h)
				}
			}
		}
		reported.Fold()
		ctx.Demand = reported
	}
	w.ctx = ctx
	return nil
}

// scheduleSlot runs one policy round on the slot's context, recording
// the assignment and its duration on w.
func scheduleSlot(policy Scheduler, w *slotWork) error {
	start := time.Now()
	asg, err := policy.Schedule(w.ctx)
	w.took = time.Since(start)
	if err != nil {
		return fmt.Errorf("sim: %s slot %d: %w", policy.Name(), w.slot, err)
	}
	if err := checkAssignment(asg, len(w.ctx.World.Hotspots), len(w.requests)); err != nil {
		return fmt.Errorf("sim: %s slot %d: %w", policy.Name(), w.slot, err)
	}
	w.asg = asg
	return nil
}

// applySlot folds one scheduled slot into the metrics: demand
// accounting, replica pushes against the previous placement, and
// serving every request in order under placement and capacity
// constraints. It must be called in slot order.
func applySlot(world *trace.World, opts Options, metrics *Metrics, w *slotWork, prevPlacement core.PlacementRuns, distanceSum *float64) error {
	m := len(world.Hotspots)
	slot, requests := w.slot, w.requests

	if w.allOffline {
		// Whole fleet offline: everything goes to the origin.
		metrics.ServedByCDN += int64(len(requests))
		metrics.TotalRequests += int64(len(requests))
		*distanceSum += world.CDNDistanceKm * float64(len(requests))
		opts.Tracer.Emit(obs.Event{Type: "slot", Slot: slot, Attrs: []obs.Attr{
			obs.I("requests", int64(len(requests))),
			obs.I("served_hotspot", 0),
			obs.I("served_cdn", int64(len(requests))),
			obs.I("replicas", 0),
			obs.I("all_offline", 1),
		}})
		return sinkSlot(opts, SlotMetrics{
			Slot:        slot,
			Requests:    int64(len(requests)),
			ServedByCDN: int64(len(requests)),
			Degraded:    true,
		})
	}

	asg := w.asg
	// Load metrics always reflect the true aggregated demand, not the
	// stale reported view the policy may have scheduled against.
	for h := 0; h < m; h++ {
		metrics.PerHotspotLoad[h] += w.actual.Totals[h]
	}

	// Whether each request's target places its video, for all requests
	// at once; the serving loop below then spends capacity in order.
	videos := make([]trace.VideoID, len(requests))
	for r := range requests {
		videos[r] = requests[r].Video
	}
	placedAt := asg.Placement.Locate(core.NewProbes(asg.Target, videos, m, world.NumVideos))

	slotServedBefore := metrics.ServedByHotspot
	slotCDNBefore := metrics.ServedByCDN
	slotReplicasBefore := metrics.Replicas
	slotInfeasibleBefore := metrics.Infeasible

	// Replication accounting: only newly placed videos cost a push.
	// Placements are bounded by the slot's effective (possibly
	// degraded) cache capacities.
	for h := 0; h < m; h++ {
		row := asg.Placement.Row(h)
		cacheCap := world.Hotspots[h].CacheCapacity
		if w.cache != nil {
			cacheCap = w.cache[h]
		}
		if len(row) > cacheCap {
			return fmt.Errorf("sim: %s slot %d: hotspot %d placement %d exceeds cache %d",
				metrics.Scheme, slot, h, len(row), cacheCap)
		}
		var prev []int32
		if prevPlacement.Rows() > 0 {
			prev = prevPlacement.Row(h)
		}
		metrics.Replicas += int64(newIn(row, prev))
	}

	// Serve requests in order, enforcing placement and effective
	// capacity (offline hotspots serve nothing; degraded hotspots serve
	// their scaled-down share).
	capLeft := make([]int64, m)
	for h := 0; h < m; h++ {
		capLeft[h] = world.Hotspots[h].ServiceCapacity
		if w.svc != nil {
			capLeft[h] = w.svc[h]
		}
		if w.offline != nil && w.offline[h] {
			capLeft[h] = 0
		}
	}
	for r, req := range requests {
		target := asg.Target[r]
		if target != CDN {
			feasible := capLeft[target] > 0 && placedAt[r] >= 0
			if !feasible {
				metrics.Infeasible++
				target = CDN
			}
		}
		if target == CDN {
			metrics.ServedByCDN++
			*distanceSum += world.CDNDistanceKm
		} else {
			capLeft[target]--
			metrics.ServedByHotspot++
			metrics.PerHotspotServed[target]++
			*distanceSum += req.Location.DistanceTo(world.Hotspots[target].Location)
		}
	}
	metrics.TotalRequests += int64(len(requests))
	if asg.StrandedDemand < 0 {
		return fmt.Errorf("sim: %s slot %d: negative StrandedDemand %d",
			metrics.Scheme, slot, asg.StrandedDemand)
	}
	metrics.StrandedRequests += asg.StrandedDemand
	if opts.PlanSink != nil && asg.Plan != nil {
		opts.PlanSink(slot, asg.Plan)
	}
	metrics.Phases = metrics.Phases.Add(asg.Phases)
	if asg.Degraded {
		metrics.DegradedRounds++
		metrics.FallbackServedByCDN += metrics.ServedByCDN - slotCDNBefore
	}

	// Flush the slot's trace: first whatever the policy recorded during
	// its round, then the simulator's own slot summary. applySlot runs
	// sequentially in slot order, so the event sequence is worker-count
	// independent.
	if opts.Tracer != nil {
		opts.Tracer.EmitAll(slot, asg.Events)
		opts.Tracer.Emit(obs.Event{Type: "slot", Slot: slot, Attrs: []obs.Attr{
			obs.I("requests", int64(len(requests))),
			obs.I("served_hotspot", metrics.ServedByHotspot-slotServedBefore),
			obs.I("served_cdn", metrics.ServedByCDN-slotCDNBefore),
			obs.I("replicas", metrics.Replicas-slotReplicasBefore),
			obs.I("degraded", degradedAttr(asg.Degraded)),
			obs.D("sched_dur", w.took),
		}})
	}

	sm := SlotMetrics{
		Slot:            slot,
		Requests:        int64(len(requests)),
		ServedByHotspot: metrics.ServedByHotspot - slotServedBefore,
		ServedByCDN:     metrics.ServedByCDN - slotCDNBefore,
		Replicas:        metrics.Replicas - slotReplicasBefore,
		Infeasible:      metrics.Infeasible - slotInfeasibleBefore,
		Stranded:        asg.StrandedDemand,
		Degraded:        asg.Degraded,
	}
	if sm.Requests > 0 {
		sm.HotspotServingRatio = float64(sm.ServedByHotspot) / float64(sm.Requests)
	}
	return sinkSlot(opts, sm)
}

// newIn counts the ids of the ascending run row that the ascending run
// prev lacks, in one merge walk.
func newIn(row, prev []int32) int {
	n := 0
	for _, v := range row {
		for len(prev) > 0 && prev[0] < v {
			prev = prev[1:]
		}
		if len(prev) == 0 || prev[0] != v {
			n++
		}
	}
	return n
}

// sinkSlot hands one applied slot's metrics to the SlotSink, if any,
// whose error aborts the run.
func sinkSlot(opts Options, sm SlotMetrics) error {
	if opts.SlotSink != nil {
		if err := opts.SlotSink(sm); err != nil {
			return fmt.Errorf("sim: slot %d: %w", sm.Slot, err)
		}
	}
	return nil
}

// degradedAttr renders the degraded flag as a 0/1 event attribute.
func degradedAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// publishRunMetrics folds a finished run into the registry: logical
// totals as sim.* counters (deterministic for any worker count), wall
// clock as sim.phase.* timers (excluded from the deterministic
// snapshot).
func publishRunMetrics(r *obs.Registry, m *Metrics) {
	if r == nil {
		return
	}
	r.Counter("sim.runs").Inc()
	r.Counter("sim.requests_total").Add(m.TotalRequests)
	r.Counter("sim.served_by_hotspot").Add(m.ServedByHotspot)
	r.Counter("sim.served_by_cdn").Add(m.ServedByCDN)
	r.Counter("sim.infeasible").Add(m.Infeasible)
	r.Counter("sim.replicas").Add(m.Replicas)
	r.Counter("sim.offline_hotspot_slots").Add(m.OfflineHotspotSlots)
	r.Counter("sim.flash_injected_requests").Add(m.FlashInjectedRequests)
	r.Counter("sim.degraded_rounds").Add(m.DegradedRounds)
	r.Counter("sim.stranded_requests").Add(m.StrandedRequests)
	r.Counter("sim.fallback_served_by_cdn").Add(m.FallbackServedByCDN)
	r.Timer("sim.phase.simulate").Observe(m.WallTime)
	r.Timer("sim.phase.scheduling").Observe(m.SchedulingTime)
	r.Timer("sim.phase.cluster").Observe(m.Phases.Cluster)
	r.Timer("sim.phase.balance").Observe(m.Phases.Balance)
	r.Timer("sim.phase.replicate").Observe(m.Phases.Replicate)
}

// finalizeMetrics derives the run-level ratios.
func finalizeMetrics(world *trace.World, metrics *Metrics, distanceSum float64) {
	if metrics.TotalRequests > 0 {
		metrics.HotspotServingRatio = float64(metrics.ServedByHotspot) / float64(metrics.TotalRequests)
		metrics.AvgAccessDistanceKm = distanceSum / float64(metrics.TotalRequests)
		metrics.CDNServerLoad = (float64(metrics.ServedByCDN) + float64(metrics.Replicas)) /
			float64(metrics.TotalRequests)
	}
	if world.NumVideos > 0 {
		metrics.ReplicationCost = float64(metrics.Replicas) / float64(world.NumVideos)
	}
}

// BuildSlotContext aggregates one slot's requests to their nearest
// hotspots and packages the scheduling inputs. It is exported for
// policies and experiments that drive scheduling outside Run.
func BuildSlotContext(world *trace.World, index *geo.Grid, slot int, requests []trace.Request, rng *rand.Rand) (*SlotContext, error) {
	nearest := make([]int, len(requests))
	for r, req := range requests {
		h, _, ok := index.Nearest(req.Location)
		if !ok {
			return nil, fmt.Errorf("sim: no hotspot found for request %d", req.ID)
		}
		if req.Video < 0 || int(req.Video) >= world.NumVideos {
			return nil, fmt.Errorf("sim: request %d video %d outside [0, %d)", req.ID, req.Video, world.NumVideos)
		}
		nearest[r] = h
	}
	demand := core.AggregateDemand(len(world.Hotspots), nearest, requests)
	capacity := world.ServiceCapacities()
	return &SlotContext{
		World:    world,
		Index:    index,
		Slot:     slot,
		Requests: requests,
		Nearest:  nearest,
		Demand:   demand,
		Capacity: capacity,
		Rand:     rng,
	}, nil
}

func checkAssignment(asg *Assignment, numHotspots, numRequests int) error {
	if asg == nil {
		return fmt.Errorf("nil assignment")
	}
	if asg.Placement.Rows() != numHotspots {
		return fmt.Errorf("placement covers %d hotspots, want %d", asg.Placement.Rows(), numHotspots)
	}
	if len(asg.Target) != numRequests {
		return fmt.Errorf("assignment covers %d requests, want %d", len(asg.Target), numRequests)
	}
	for r, t := range asg.Target {
		if t != CDN && (t < 0 || t >= numHotspots) {
			return fmt.Errorf("request %d target %d out of range", r, t)
		}
	}
	return nil
}
