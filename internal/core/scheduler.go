package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/mcmf"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
)

// Scheduler runs RBCAer scheduling rounds against a fixed world.
// It is safe for sequential reuse across timeslots; it is not safe for
// concurrent use.
type Scheduler struct {
	world  *trace.World
	params Params
	locs   []geo.Point
	// ar is the reusable round arena behind buildNetwork and the flows
	// accumulator; it shares the Scheduler's sequential-use contract.
	ar *roundArena
	// delta is the retained incremental-scheduling state, allocated
	// lazily on the first round when Params.DeltaThreshold > 0 and
	// dropped whenever a round errors.
	delta *deltaState
}

// New validates the inputs and returns a scheduler for the world.
func New(world *trace.World, params Params) (*Scheduler, error) {
	if world == nil {
		return nil, fmt.Errorf("core: nil world")
	}
	if err := world.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid world: %w", err)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	locs := make([]geo.Point, len(world.Hotspots))
	for i, h := range world.Hotspots {
		locs[i] = h.Location
	}
	return &Scheduler{world: world, params: params, locs: locs, ar: newRoundArena(len(world.Hotspots))}, nil
}

// World returns the world the scheduler was built for.
func (s *Scheduler) World() *trace.World { return s.world }

// Params returns the scheduler's parameters.
func (s *Scheduler) Params() Params { return s.params }

// Constraints carries one round's effective resource limits, which may
// differ from the world's nominal values when faults degrade the fleet
// (churned-out hotspots at capacity 0, throttled devices at a fraction
// of their nominal service or cache capacity). Nil slices mean
// "nominal".
type Constraints struct {
	// Service[h] overrides hotspot h's service capacity this round.
	Service []int64
	// Cache[h] overrides hotspot h's cache capacity this round.
	Cache []int
}

// stepCheck, when set, sees every network solveStep is handed before it
// is solved. Tests set it to hold the per-component solve to the
// whole-network oracle on every step of real sweeps; it must leave the
// φ vectors as it found them.
var stepCheck func(s *Scheduler, st *stepNet, phiOver, phiUnder []int64, clusterOf []int, useGuides bool)

// solveFn indirects the MCMF solve so tests can inject solver failures
// and panics to exercise the degraded path.
var solveFn = (*mcmf.Graph).MinCostMaxFlow

// safeSolve runs one MCMF solve, converting a solver panic into an
// error so a corrupted or over-constrained network can never take the
// whole scheduling round down.
func safeSolve(g *mcmf.Graph, source, sink int) (res mcmf.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: mcmf solver panicked: %v", r)
		}
	}()
	return solveFn(g, source, sink)
}

// ScheduleRound runs Algorithm 1 (request balancing with content
// aggregation) followed by Procedure 1 (content aggregation
// replication) on one timeslot's aggregated demand and returns the
// resulting plan. cons carries per-round effective service and cache
// capacities (the zero value is the world's nominal ones). It validates
// its inputs and degrades gracefully instead of failing the round:
//
// an infeasible or failing MCMF solve (error or panic) is recoverable —
// the θ iteration's flow simply stays unmoved and falls back to the CDN,
// counted in Stats.RecoveredErrors — and the plan is still complete and
// feasible (placement within cache limits, stranded surplus routed to
// the CDN via OverflowToCDN) and marked with Plan.Degraded.
//
// Hard errors remain only for contract violations by the caller: nil
// or negative demand, mis-sized or negative capacity vectors.
func (s *Scheduler) ScheduleRound(d *Demand, cons Constraints) (*Plan, error) {
	svc, cache, err := cons.Resolve(s.world, d)
	if err != nil {
		return nil, err
	}
	s.ar.table.built = false // the demand table is per round, whatever d held last time
	if s.params.DeltaThreshold > 0 {
		return s.scheduleDelta(d, svc, cache)
	}
	return s.scheduleFull(d, svc, cache)
}

// Resolve is the caller contract of a scheduling round, shared by every
// scheduler that takes (Demand, Constraints): it rejects nil, mis-sized
// or negative demand and capacity vectors and returns the round's
// effective service and cache capacities, nil slices resolved to the
// world's nominal values.
func (cons Constraints) Resolve(world *trace.World, d *Demand) (svc []int64, cache []int, err error) {
	if d == nil {
		return nil, nil, fmt.Errorf("core: nil demand")
	}
	m := len(world.Hotspots)
	if d.NumHotspots() != m {
		return nil, nil, fmt.Errorf("core: demand covers %d hotspots, world has %d", d.NumHotspots(), m)
	}
	if len(d.rows) != m {
		return nil, nil, fmt.Errorf("core: demand per-video covers %d hotspots, world has %d", len(d.rows), m)
	}
	for h, n := range d.Totals {
		if n < 0 {
			return nil, nil, fmt.Errorf("core: negative demand %d at hotspot %d", n, h)
		}
	}
	svc = cons.Service
	if svc == nil {
		svc = world.ServiceCapacities()
	} else {
		if len(svc) != m {
			return nil, nil, fmt.Errorf("core: capacities cover %d hotspots, world has %d", len(svc), m)
		}
		for h, c := range svc {
			if c < 0 {
				return nil, nil, fmt.Errorf("core: negative capacity %d at hotspot %d", c, h)
			}
		}
	}
	cache = cons.Cache
	if cache == nil {
		cache = world.CacheCapacities()
	} else {
		if len(cache) != m {
			return nil, nil, fmt.Errorf("core: cache capacities cover %d hotspots, world has %d", len(cache), m)
		}
		for h, c := range cache {
			if c < 0 {
				return nil, nil, fmt.Errorf("core: negative cache capacity %d at hotspot %d", c, h)
			}
		}
	}
	return svc, cache, nil
}

// scheduleFull runs one complete scheduling round: clustering, the full
// θ sweep, replication, and plan assembly.
func (s *Scheduler) scheduleFull(d *Demand, svc []int64, cache []int) (*Plan, error) {
	ro := newRoundObs(s.params)
	over, under, phiOver, phiUnder := s.partition(d, svc)
	stats := partitionStats(over, under, phiOver, phiUnder)
	flows := s.ar.emptyFlows()
	var mcmfPaths int64

	// Fast path: no movable workload (no overloaded or no
	// under-utilised hotspots) means the θ sweep cannot move anything —
	// skip clustering, the distance cache, and the sweep entirely and
	// go straight to replication. Common in light-traffic and heavily
	// degraded slots. The skipped stages would all have been no-ops:
	// the sweep breaks before its first iteration and the distance
	// cache is empty whenever either side of the partition is, so the
	// plan is identical to the full path's.
	if stats.MaxFlow > 0 {
		clusterOf, err := s.clusterPhase(d, &stats, &ro)
		if err != nil {
			return nil, err
		}
		mcmfPaths = s.runSweep(over, under, phiOver, phiUnder, clusterOf, flows, &stats, &ro)
	}
	return s.finishRound(d, &stats, &ro, over, phiOver, flows, svc, cache, mcmfPaths)
}

// partitionStats starts a round's Stats from its partition: the side
// counts and the movable workload min(Σφ_i, Σφ_j).
func partitionStats(over, under []int, phiOver, phiUnder []int64) Stats {
	var stats Stats
	stats.Overloaded = len(over)
	stats.Underutilized = len(under)
	var sumOver, sumUnder int64
	for _, i := range over {
		sumOver += phiOver[i]
	}
	for _, j := range under {
		sumUnder += phiUnder[j]
	}
	stats.MaxFlow = min(sumOver, sumUnder)
	return stats
}

// clusterPhase runs the round's content clustering, unless guides are
// off, and returns each hotspot's cluster (nil without guides).
func (s *Scheduler) clusterPhase(d *Demand, stats *Stats, ro *roundObs) ([]int, error) {
	if s.params.DisableGuides {
		return nil, nil
	}
	t0 := ro.now()
	var clusterOf []int
	var nClusters int
	var err error
	if s.delta != nil {
		clusterOf, nClusters, err = s.delta.clusters(s, d)
	} else {
		clusterOf, nClusters, err = s.contentClusters(d)
	}
	if err != nil {
		return nil, err
	}
	stats.Clusters = nClusters
	stats.Phases.Cluster = ro.since(t0)
	ro.emit("cluster",
		obs.I("clusters", int64(nClusters)),
		obs.I("overloaded", int64(stats.Overloaded)),
		obs.I("underutilized", int64(stats.Underutilized)),
		obs.I("max_flow", stats.MaxFlow),
		obs.D("dur", stats.Phases.Cluster))
	return clusterOf, nil
}

// runSweep runs Algorithm 1's θ sweep plus the residual Gd pass,
// accumulating extracted flows into flows and decrementing the φ
// vectors, and times it as the round's balance phase. Returns the total
// MCMF augmenting-path count.
func (s *Scheduler) runSweep(
	over, under []int,
	phiOver, phiUnder []int64,
	clusterOf []int,
	flows map[int64]int64,
	stats *Stats,
	ro *roundObs,
) int64 {
	// The over×under distances are fixed for the whole round: compute
	// them once, keep the pairs within θ2, and share those rows across
	// every θ iteration and the residual Gd pass.
	tBalance := ro.now()
	dcache := s.newDistCache(over, under, s.params.Theta2, par.Workers(s.params.Workers))
	stats.DistanceCalcs = dcache.calcs()
	var moved int64
	var mcmfPaths int64

	// θ sweep over the content-aggregation network Gc (Algorithm 1,
	// lines 5-10). The sweep is driven by integer step index so float
	// accumulation cannot skip or double the final θ2 round.
	for _, theta := range sweepThetas(s.params) {
		if moved >= stats.MaxFlow {
			break
		}
		tIter := ro.now()
		st := s.newStep(theta, over, under, phiOver, phiUnder, dcache)
		step := s.solveStep(st, clusterOf, !s.params.DisableGuides, flows, phiOver, phiUnder, stats)
		stats.DirectEdges += st.directPairs
		stats.GuideNodes += step.guideNodes
		mcmfPaths += step.paths
		moved += step.moved
		stats.Iterations++
		ro.emit("theta-iter",
			obs.F("theta", theta),
			obs.I("direct_pairs", int64(st.directPairs)),
			obs.I("guide_nodes", int64(step.guideNodes)),
			obs.I("components", int64(step.components)),
			obs.I("largest", int64(step.largest)),
			obs.I("moved", step.moved),
			obs.I("paths", step.paths),
			obs.I("recovered", step.recovered),
			obs.D("dur", ro.since(tIter)))
	}

	// Residual pass on the plain balancing network Gd (Algorithm 1,
	// lines 11-13): move whatever the guided rounds left behind.
	if moved < stats.MaxFlow {
		tRes := ro.now()
		st := s.newStep(s.params.Theta2, over, under, phiOver, phiUnder, dcache)
		step := s.solveStep(st, nil, false, flows, phiOver, phiUnder, stats)
		mcmfPaths += step.paths
		moved += step.moved
		ro.emit("residual-pass",
			obs.I("direct_pairs", int64(st.directPairs)),
			obs.I("components", int64(step.components)),
			obs.I("largest", int64(step.largest)),
			obs.I("moved", step.moved),
			obs.I("paths", step.paths),
			obs.I("recovered", step.recovered),
			obs.D("dur", ro.since(tRes)))
	}
	stats.MovedFlow = moved
	stats.Phases.Balance = ro.since(tBalance)
	return mcmfPaths
}

// stepResult is what one network of the sweep moved and how it split.
type stepResult struct {
	moved, paths, recovered int64
	guideNodes              int
	components, largest     int // largest: the most nodes of one component, source and sink aside
}

// solveStep solves one network of the sweep (a θ iteration's Gc or the
// residual Gd) one connected component at a time, in st's order, and
// extracts the attributed flows. The components share only the source
// and sink, so the network's maximum flow at minimum cost is theirs
// summed, and no component's flow depends on another's: each is built
// and solved on its own, for its maximum flow. That never exceeds what
// the round can still move, min(Σφ_i, Σφ_j) over the remaining φ.
//
// A component's solver error or panic degrades the round instead of
// failing it: its flow stays unmoved, to fall back to the CDN with the
// rest of the surplus, and recovered counts it. So does an attribution
// mismatch, which trusts the extracted flows (they reflect the edges
// actually carrying flow, and φ was decremented to match).
func (s *Scheduler) solveStep(st *stepNet, clusterOf []int, useGuides bool, flows map[int64]int64, phiOver, phiUnder []int64, stats *Stats) (r stepResult) {
	if stepCheck != nil {
		stepCheck(s, st, phiOver, phiUnder, clusterOf, useGuides)
	}
	r.components = st.components()
	for c := range r.components {
		nb := s.buildNetwork(st, c, phiOver, phiUnder, clusterOf, useGuides)
		r.guideNodes += nb.guideNodes
		r.largest = max(r.largest, nb.g.NumNodes()-2)
		res, err := safeSolve(nb.g, netSource, netSink)
		var extracted int64
		if err == nil {
			extracted = s.extractFlows(nb, flows, phiOver, phiUnder)
			r.paths += int64(res.Paths)
		}
		if err != nil || extracted != res.Flow {
			stats.Degraded = true
			stats.RecoveredErrors++
			r.recovered++
		}
		r.moved += extracted
	}
	return r
}

// finishRound runs the round's tail shared by the full θ-sweep path and
// the MaxFlow==0 fast path: Procedure 1 replication followed by
// assemblePlan.
func (s *Scheduler) finishRound(
	d *Demand,
	stats *Stats,
	ro *roundObs,
	over []int,
	phiOver []int64,
	flows map[int64]int64,
	svc []int64,
	cache []int,
	mcmfPaths int64,
) (*Plan, error) {
	// Procedure 1: realise flows into per-video redirects and build
	// the placement.
	tRep := ro.now()
	redirects, placement, unrealized, replicas, err := s.replicate(d, flows, svc, cache)
	if err != nil {
		return nil, err
	}
	stats.UnrealizedFlow = unrealized
	stats.Replicas = replicas
	stats.Phases.Replicate = ro.since(tRep)
	return s.assemblePlan(stats, ro, over, phiOver, flows, redirects, placement, mcmfPaths), nil
}

// assemblePlan runs the round's final accounting — CDN overflow, the
// realised-flow reconciliation, Ω1 — publishes the round's metrics,
// and assembles the Plan. It is shared by the full and
// delta paths, so both produce byte-identical canonical output from
// identical inputs.
func (s *Scheduler) assemblePlan(
	stats *Stats,
	ro *roundObs,
	over []int,
	phiOver []int64,
	flows map[int64]int64,
	redirects []Redirect,
	placement PlacementRuns,
	mcmfPaths int64,
) *Plan {
	m := len(s.world.Hotspots)

	// Whatever surplus remains unmovable within θ2 goes to the origin
	// CDN server (Algorithm 1, line 14).
	overflow := make([]int64, m)
	for _, i := range over {
		overflow[i] = phiOver[i]
	}

	// Unrealised flow — what the sweep moved minus what Procedure 1
	// realised as redirects — stays at its overloaded source and
	// therefore also falls back to the CDN.
	edges := FlowEdges(redirects, m)
	for k, f := range flows {
		i, _ := unpackPair(k, m)
		overflow[i] += f
	}
	for _, e := range edges {
		overflow[e.From] -= e.Amount
	}
	for _, o := range overflow {
		stats.StrandedToCDN += o
	}
	stats.Omega1Km = Omega1Km(s.world, redirects, stats.StrandedToCDN)

	if stats.Degraded {
		ro.emit("degraded", obs.I("recovered_errors", int64(stats.RecoveredErrors)))
	}
	ro.emit("round",
		obs.I("max_flow", stats.MaxFlow),
		obs.I("moved", stats.MovedFlow),
		obs.I("unrealized", stats.UnrealizedFlow),
		obs.I("stranded", stats.StrandedToCDN),
		obs.I("replicas", stats.Replicas),
		obs.I("redirects", int64(len(redirects))),
		obs.I("iterations", int64(stats.Iterations)),
		obs.I("mcmf_paths", mcmfPaths),
		obs.F("omega1_km", stats.Omega1Km),
		obs.I("degraded", boolAttr(stats.Degraded)),
		obs.D("cluster_dur", stats.Phases.Cluster),
		obs.D("balance_dur", stats.Phases.Balance),
		obs.D("replicate_dur", stats.Phases.Replicate))
	publishRound(s.params.Obs, stats, mcmfPaths)

	return &Plan{
		Flows:         edges,
		Redirects:     redirects,
		Placement:     placement,
		OverflowToCDN: overflow,
		Degraded:      stats.Degraded,
		Stats:         *stats,
		Events:        ro.events,
	}
}

// boolAttr renders a bool as a 0/1 event attribute value.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Omega1Km computes a plan's realised access-latency cost Ω1: every
// redirected request pays the distance between its source and target
// hotspots, every CDN-stranded request pays CDNDistanceKm, and locally
// served requests pay 0. The summation order is fixed (redirect slice
// order, then the stranded total), keeping the value deterministic.
func Omega1Km(world *trace.World, redirects []Redirect, stranded int64) float64 {
	var sum float64
	for _, r := range redirects {
		sum += float64(r.Count) * world.Hotspots[r.From].Location.DistanceTo(world.Hotspots[r.To].Location)
	}
	return sum + float64(stranded)*world.CDNDistanceKm
}

// sweepThetas returns the θ values Algorithm 1's sweep visits:
// Theta1 + k·DeltaD for k = 0..K with K = ⌊(Theta2-Theta1)/DeltaD⌋
// (computed with a small tolerance so an exactly divisible range
// includes Theta2). Each θ is derived from the step index by one
// multiplication — never by accumulating DeltaD — so rounding error
// stays at one ulp per value instead of growing with the iteration
// count, which previously could skip (or, below θ2, double) the final
// θ2 round on long sweeps. Values are clamped to Theta2 so the last
// round is bounded by exactly the configured threshold.
func sweepThetas(p Params) []float64 {
	if p.SingleShotTheta {
		return []float64{p.Theta2}
	}
	span := p.Theta2 - p.Theta1
	// Relative tolerance: treat Theta1 + K·DeltaD as reaching Theta2
	// when it falls short by under half an ulp-scale of the division.
	k := int(math.Floor(span/p.DeltaD + 1e-9))
	if k < 0 {
		k = 0
	}
	out := make([]float64, k+1)
	for i := 0; i <= k; i++ {
		th := p.Theta1 + float64(i)*p.DeltaD
		if th > p.Theta2 {
			th = p.Theta2
		}
		out[i] = th
	}
	return out
}

// extractFlows reads attributed edge flows out of a solved network,
// accumulates them into flows, and decrements the remaining φ values.
// It returns the total units extracted.
func (s *Scheduler) extractFlows(nb *flowNet, flows map[int64]int64, phiOver, phiUnder []int64) int64 {
	m := len(s.world.Hotspots)
	var total int64
	for _, ae := range nb.edges {
		f := nb.g.Flow(ae.id)
		if f <= 0 {
			continue
		}
		flows[pairKey(ae.i, ae.j, m)] += f
		phiOver[ae.i] -= f
		phiUnder[ae.j] -= f
		total += f
	}
	return total
}

// FlowEdges derives Plan.Flows from a plan's redirects: the realised
// amount per (source, target) pair, in ascending (source, target)
// order over a world of m hotspots. Flow that Procedure 1 backed out
// has no redirect and is reported via OverflowToCDN instead.
func FlowEdges(redirects []Redirect, m int) []FlowEdge {
	realized := make(map[int64]int64)
	for _, r := range redirects {
		realized[pairKey(int(r.From), int(r.To), m)] += r.Count
	}
	keys := make([]int64, 0, len(realized))
	for k := range realized {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]FlowEdge, len(keys))
	for n, k := range keys {
		i, j := unpackPair(k, m)
		out[n] = FlowEdge{From: trace.HotspotID(i), To: trace.HotspotID(j), Amount: realized[k]}
	}
	return out
}
