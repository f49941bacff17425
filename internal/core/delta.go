package core

// Incremental delta scheduling (DESIGN.md §12).
//
// RBCAer's per-slot cost is dominated by three stages whose inputs drift
// slowly between adjacent slots: content clustering (signatures + the
// O(m²) Jaccard matrix), the θ-swept MCMF solve, and Procedure 1's
// replication walk. Delta mode retains the previous round's inputs and
// sub-results and re-computes only what an exact input diff invalidates.
//
// The reuse rules are exact memoisation, never approximation: a retained
// sub-result is reused only when every input it depends on is provably
// unchanged, and everything else is recomputed cold through the
// identical code path. MCMF optima are not unique, so the sweep is never
// "warm-started and re-solved" — either the whole sweep's inputs are
// unchanged (partition, distances, clusters, θ schedule) and the
// recorded flow solutions are replayed verbatim onto the retained
// per-iteration graphs via residual patching (mcmf.SetFlows), or the
// sweep runs cold. This makes delta plans digest-identical to full
// solves by construction; Params.DeltaVerify additionally shadow-runs
// the full solver and compares Plan.Digest at runtime.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mcmf"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// sweepIter is one recorded θ-sweep iteration: the network it built (in
// its own retained graph) and the flow solution the solver found on it.
type sweepIter struct {
	g         *mcmf.Graph
	net       flowNet
	flows     []int64 // per-edge flow snapshot, EdgeID order
	theta     float64
	residual  bool
	extracted int64
	paths     int64
}

// sweepRecord is the retained θ sweep of the last non-replayed round:
// every iteration's network and solution, plus the round inputs a
// replay must match (partition, distance cache, cluster epoch).
type sweepRecord struct {
	iters []sweepIter
	n     int // live iterations of the recorded round

	// flows is the recorded round's accumulated (i,j) flow map, owned
	// by the record (copied, never aliased): replicateDelta compares
	// the current round's flows against it to skip stage A.
	flows map[int64]int64

	// over/under/dcache are the recorded round's partition and distance
	// cache, retained by reference (partition allocates fresh slices
	// every round, so nothing else mutates them).
	over, under []int
	dcache      *distCache
	// clusterEpoch is the delta state's cluster epoch when the round
	// was recorded.
	clusterEpoch int64
	// valid reports the recorded round completed non-degraded; degraded
	// rounds (recovered solver errors) are never replayed.
	valid bool
}

// begin resets the record for a new round's captures, retaining the
// per-iteration graphs and storage.
func (r *sweepRecord) begin() { r.n = 0 }

// dest returns the graph and result shell the next iteration should
// build into, growing the iteration table on demand.
func (r *sweepRecord) dest() (*mcmf.Graph, *flowNet) {
	if r.n == len(r.iters) {
		r.iters = append(r.iters, sweepIter{g: mcmf.NewGraph(0)})
	}
	it := &r.iters[r.n]
	if it.g == nil {
		it.g = mcmf.NewGraph(0)
	}
	return it.g, &it.net
}

// capture records the iteration just solved in the slot dest() returned:
// its per-edge flow snapshot and extraction summary.
func (r *sweepRecord) capture(theta float64, residual bool, extracted, paths int64) {
	it := &r.iters[r.n]
	it.flows = it.net.g.AppendFlows(it.flows[:0])
	it.theta = theta
	it.residual = residual
	it.extracted = extracted
	it.paths = paths
	r.n++
}

// captureRound records the round-level replay preconditions.
func (r *sweepRecord) captureRound(over, under []int, dcache *distCache, clusterEpoch int64, valid bool) {
	r.over, r.under = over, under
	r.dcache = dcache
	r.clusterEpoch = clusterEpoch
	r.valid = valid
}

// retainFlows copies the round's accumulated flow map into the record.
func (r *sweepRecord) retainFlows(flows map[int64]int64) {
	if r.flows == nil {
		r.flows = make(map[int64]int64, len(flows))
	} else {
		clear(r.flows)
	}
	for k, f := range flows {
		r.flows[k] = f
	}
}

// deltaState is the scheduler's retained cross-round memoisation state.
// It is dropped wholesale (next round solves cold) on any round error or
// shadow-verification mismatch.
type deltaState struct {
	haveState bool

	// Retained round inputs. demand is retained BY REFERENCE — the
	// documented delta-mode caller contract forbids mutating a Demand
	// after passing it to ScheduleRound. svc and cache are copied.
	demand *Demand
	svc    []int64
	cache  []int

	// Per-round dirty flags, rewritten by diff each round.
	demandDirty []bool
	svcDirty    []bool
	cacheDirty  []bool
	dirtyList   []int

	// Signature dirt accumulates across rounds until a clustering round
	// consumes it (fast-path rounds skip clustering entirely, so their
	// dirt must survive into the next clustered round).
	sigDirty     []bool
	sigDirtyList []int

	// Memoised clustering state: content signatures as ascending video
	// runs, every pair's count of shared signature videos (m×m, the
	// diagonal holding each signature's size), and the current cut.
	// clusterEpoch bumps only when the cut's content actually changes.
	sigs         [][]int32
	shared       []uint32
	clusterOf    []int
	nClusters    int
	clusterEpoch int64

	// rec is the recorded θ sweep of the last non-replayed round.
	rec sweepRecord

	// Retained replication outputs of the previous round. placement
	// rows are aliased into served plans, which treat them as
	// immutable. outFoot/inFoot are the per-hotspot redirect footprints
	// (video → count redirected out of / into the hotspot): the exact
	// dirty test for fill-row reuse and the reconstruction basis for
	// patched rows when stage A is skipped.
	redirects  []Redirect
	placement  PlacementRuns
	unrealized int64
	outFoot    []map[trace.VideoID]int64
	inFoot     []map[trace.VideoID]int64

	// sinceFull counts rounds since the last full solve, driving the
	// FullSolveEvery periodic fallback.
	sinceFull int
}

func newDeltaState(m int) *deltaState {
	return &deltaState{
		demandDirty: make([]bool, m),
		svcDirty:    make([]bool, m),
		cacheDirty:  make([]bool, m),
		sigDirty:    make([]bool, m),
		svc:         make([]int64, m),
		cache:       make([]int, m),
	}
}

// DeltaStats are the scheduler's cumulative incremental-scheduling
// counters. They survive retained-state drops (errors, verify
// mismatches) for the lifetime of the Scheduler.
type DeltaStats struct {
	// Rounds counts every round scheduled in delta mode, including
	// fallbacks.
	Rounds int64
	// Fallbacks counts drift and periodic full solves (the cold first
	// round is not a fallback).
	Fallbacks int64
	// SweepReplays counts rounds that reused the recorded θ-sweep flow
	// solution instead of re-solving.
	SweepReplays int64
	// PatchedRows is the total number of per-hotspot plan rows rebuilt
	// by delta rounds.
	PatchedRows int64
	// VerifyMismatches counts DeltaVerify digest mismatches (each drops
	// the retained state and serves the full plan).
	VerifyMismatches int64
}

// DeltaStats reports the scheduler's cumulative delta counters.
func (s *Scheduler) DeltaStats() DeltaStats { return s.deltaTotals }

// scheduleDelta is the delta-mode round entry: diff the inputs against
// the retained snapshot, pick full or delta, and verify if asked.
func (s *Scheduler) scheduleDelta(d *Demand, svc []int64, cache []int) (*Plan, error) {
	m := len(s.world.Hotspots)
	if s.delta == nil {
		s.delta = newDeltaState(m)
	}
	ds := s.delta

	reason := "cold"
	totalsOrSvcChanged := false
	if ds.haveState {
		ds.sinceFull++
		totalsOrSvcChanged = ds.diff(d, svc, cache)
		switch {
		case s.params.FullSolveEvery > 0 && ds.sinceFull >= s.params.FullSolveEvery:
			reason = "periodic"
		case float64(len(ds.dirtyList)) > s.params.DeltaThreshold*float64(m):
			reason = "drift"
		default:
			reason = ""
		}
	}

	var plan *Plan
	var err error
	if reason != "" {
		plan, err = s.deltaFull(d, svc, cache, reason)
	} else {
		plan, err = s.deltaRound(d, svc, cache, totalsOrSvcChanged)
	}
	if err != nil {
		// Drop the retained state: the next round re-solves cold.
		s.delta = nil
		return nil, err
	}
	s.deltaTotals.Rounds++
	if s.params.DeltaVerify && plan.Stats.DeltaRound {
		plan = s.deltaVerifyPlan(d, svc, cache, plan)
	}
	publishDelta(s.params.Obs, &plan.Stats)
	return plan, nil
}

// deltaFull runs a recorded full solve (cold start, drift fallback, or
// periodic fallback) and retains everything the next delta round needs.
func (s *Scheduler) deltaFull(d *Demand, svc []int64, cache []int, reason string) (*Plan, error) {
	ds := s.delta
	ds.rec.begin()
	plan, err := s.scheduleFull(d, svc, cache, &ds.rec, false)
	if err != nil {
		return nil, err
	}
	if reason != "cold" {
		plan.Stats.DeltaFallback = true
		s.deltaTotals.Fallbacks++
	}
	// s.ar.flows still holds the round's accumulated flow map (the next
	// round clears it on reuse).
	ds.rec.retainFlows(s.ar.flows)
	ds.retain(d, svc, cache, plan)
	ds.rebuildFootprints(plan.Redirects)
	ds.sinceFull = 0
	return plan, nil
}

// deltaRound runs one incremental round: memoised clustering, sweep
// replay (or cold sweep) and patch-based replication, all through the
// same assembly tail as the full path.
func (s *Scheduler) deltaRound(d *Demand, svc []int64, cache []int, totalsOrSvcChanged bool) (*Plan, error) {
	ds := s.delta
	rec := &ds.rec
	ro := newRoundObs(s.params)

	over, under, phiOver, phiUnder := s.partition(d, svc)
	var stats Stats
	stats.DeltaRound = true
	stats.Overloaded = len(over)
	stats.Underutilized = len(under)
	var sumOver, sumUnder int64
	for _, i := range over {
		sumOver += phiOver[i]
	}
	for _, j := range under {
		sumUnder += phiUnder[j]
	}
	stats.MaxFlow = sumOver
	if sumUnder < stats.MaxFlow {
		stats.MaxFlow = sumUnder
	}

	flows := s.ar.emptyFlows()
	var mcmfPaths int64
	replayed := false
	dcache := &distCache{}

	if stats.MaxFlow == 0 {
		// Mirror the full path's fast path: no clustering, no sweep. A
		// zero-iteration record keeps the next unchanged round
		// replayable.
		rec.begin()
		rec.captureRound(over, under, dcache, ds.clusterEpoch, true)
	} else {
		var clusterOf []int
		if !s.params.DisableGuides {
			t0 := ro.now()
			nClusters := 0
			var err error
			clusterOf, nClusters, err = ds.refreshClusters(s, d)
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
		}

		tBalance := ro.now()
		dcache = rec.dcache
		if dcache == nil || !slices.Equal(over, rec.over) || !slices.Equal(under, rec.under) {
			dcache = s.newDistCache(new(distCache), over, under, s.params.Theta2, par.Workers(s.params.Workers))
		}
		stats.DistanceCalcs = dcache.calcs()

		canReplay := rec.valid && !totalsOrSvcChanged && rec.clusterEpoch == ds.clusterEpoch
		if canReplay {
			if err := s.replaySweep(rec, flows, phiOver, phiUnder, &stats, &mcmfPaths); err != nil {
				// Cannot happen by construction (the recorded networks
				// and solutions match this round's inputs exactly);
				// recover defensively by re-running the round cold.
				over, under, phiOver, phiUnder = s.partition(d, svc)
				flows = s.ar.emptyFlows()
				mcmfPaths = 0
				stats.MovedFlow, stats.Iterations, stats.DirectEdges, stats.GuideNodes = 0, 0, 0, 0
				canReplay = false
			} else {
				stats.SweepReplayed = true
				replayed = true
				s.deltaTotals.SweepReplays++
			}
		}
		if !canReplay {
			rec.begin()
			mcmfPaths = s.runSweep(over, under, phiOver, phiUnder, dcache, clusterOf, flows, &stats, &ro, rec)
			rec.captureRound(over, under, dcache, ds.clusterEpoch, !stats.Degraded)
		}
		stats.Phases.Balance = ro.since(tBalance)
	}

	tRep := ro.now()
	redirects, placement, unrealized, replicas, patched, skippedA, err := s.replicateDelta(d, flows, svc, cache)
	if err != nil {
		return nil, err
	}
	stats.UnrealizedFlow = unrealized
	stats.Replicas = replicas
	stats.PatchedRows = patched
	stats.Phases.Replicate = ro.since(tRep)
	s.deltaTotals.PatchedRows += int64(patched)

	ro.emit("delta",
		obs.I("patched_rows", int64(patched)),
		obs.I("sweep_replayed", boolAttr(stats.SweepReplayed)),
		obs.I("skipped_stage_a", boolAttr(skippedA)))
	plan := s.assemblePlan(&stats, &ro, over, phiOver, flows, redirects, placement, mcmfPaths, false)

	if !replayed {
		rec.retainFlows(flows)
	}
	ds.retain(d, svc, cache, plan)
	if !skippedA {
		ds.rebuildFootprints(plan.Redirects)
	}
	return plan, nil
}

// replaySweep imposes each recorded iteration's flow solution onto its
// retained network and re-extracts it through the identical extraction
// path, accumulating into flows and the φ vectors. The recorded round's
// networks are exactly the ones this round's solve would build (the
// caller certified partition, distances, and clusters unchanged), so
// the result is what a fresh solve would produce, without solving.
func (s *Scheduler) replaySweep(rec *sweepRecord, flows map[int64]int64, phiOver, phiUnder []int64, stats *Stats, mcmfPaths *int64) error {
	var moved int64
	for k := 0; k < rec.n; k++ {
		it := &rec.iters[k]
		if err := it.net.g.SetFlows(it.flows); err != nil {
			return fmt.Errorf("core: delta replay iteration %d: %w", k, err)
		}
		extracted := s.extractFlows(&it.net, flows, phiOver, phiUnder)
		if extracted != it.extracted {
			return fmt.Errorf("core: delta replay iteration %d extracted %d, recorded %d", k, extracted, it.extracted)
		}
		moved += extracted
		*mcmfPaths += it.paths
		if !it.residual {
			stats.DirectEdges += it.net.directPairs
			stats.GuideNodes += it.net.guideNodes
			stats.Iterations++
		}
	}
	stats.MovedFlow = moved
	return nil
}

// replicateDelta is the patch-based Procedure 1: it reuses the previous
// round's redirects when the flows and every flow participant's inputs
// are unchanged (stage A skip), and rebuilds only the per-hotspot fill
// rows whose inputs — demand, capacities, or redirect footprint —
// changed, aliasing the retained rows for everything else.
func (s *Scheduler) replicateDelta(d *Demand, flows map[int64]int64, svc []int64, cache []int) (
	redirects []Redirect,
	placement PlacementRuns,
	unrealized int64,
	replicas int64,
	patched int,
	skippedA bool,
	err error,
) {
	ds := s.delta
	m := len(s.world.Hotspots)

	// Stage A depends on exactly: the flow map, the flow
	// sources' demand rows, and the flow targets' cache capacities. If
	// all are unchanged its outputs are unchanged.
	skippedA = flowsEqual(flows, ds.rec.flows)
	if skippedA {
		for k, f := range flows {
			if f <= 0 {
				continue
			}
			i, j := unpackPair(k, m)
			if ds.demandDirty[i] || ds.cacheDirty[j] {
				skippedA = false
				break
			}
		}
	}

	var t *demandTable
	var freshOut, freshIn []map[trace.VideoID]int64
	if skippedA {
		redirects = ds.redirects
		unrealized = ds.unrealized
	} else {
		t = s.demandTable(d)
		redirects, unrealized = s.stageA(t, flows, cache)
		if unrealized < 0 {
			return nil, PlacementRuns{}, 0, 0, 0, false, fmt.Errorf("core: negative unrealized flow %d (bug)", unrealized)
		}
		freshOut, freshIn = footprints(m, redirects)
	}

	serveBudget := s.fillBudgets(svc, redirects)
	placement.Off = make([]int, 1, m+1)
	for h := 0; h < m; h++ {
		dirty := ds.demandDirty[h] || ds.svcDirty[h] || ds.cacheDirty[h]
		if !skippedA && !dirty {
			dirty = !footEqual(freshOut[h], ds.outFoot[h]) || !footEqual(freshIn[h], ds.inFoot[h])
		}
		if !dirty {
			// Every input of this row — demand, svc, cache, redirect
			// footprint in and out — is unchanged, so a rebuild would
			// reproduce the retained row exactly; alias it.
			placement.AppendRow(ds.placement.Row(h))
			continue
		}
		patched++
		if skippedA {
			placement.AppendRow(fillFromFootprint(d.row(h), ds.outFoot[h], ds.inFoot[h], cache[h], serveBudget[h]))
		} else {
			s.fillRow(t, h, cache[h], serveBudget[h], &placement)
		}
	}
	return redirects, placement, unrealized, int64(len(placement.IDs)), patched, skippedA, nil
}

// signature returns hotspot h's content signature as an ascending run:
// its TopFraction most-demanded videos, the leading entries of its rank
// row. contentClusters reads the same entries as a run.
func (s *Scheduler) signature(t *demandTable, h int) []int32 {
	row := t.rankRow(h)
	sig := make([]int32, similarity.TopCount(len(row), s.params.TopFraction))
	for x, e := range row[:len(sig)] {
		sig[x] = int32(e.video)
	}
	slices.Sort(sig)
	return sig
}

// byCountThenVideo ranks demand entries by (count desc, video asc), the
// order of the table's rank rows.
func byCountThenVideo(a, b demandEntry) int {
	if a.count != b.count {
		return cmp.Compare(b.count, a.count)
	}
	return cmp.Compare(a.video, b.video)
}

// fillFromFootprint rebuilds one hotspot's placement row when stage A
// was skipped, from the retained redirect footprints: stage A placed
// exactly the inbound videos in, and consumed out from the local demand
// base (λ − out is the remaining demand). The fill itself is fillRow's —
// (count desc, video asc), bounded by cache space and the serve budget.
func fillFromFootprint(base []videoCount, out, in map[trace.VideoID]int64, cacheCap int, budget int64) []int32 {
	row := make([]int32, 0, len(in))
	for v := range in {
		row = append(row, int32(v))
	}
	if len(row) < cacheCap && budget > 0 {
		var cands []demandEntry
		for _, e := range base {
			if _, placed := in[e.video]; !placed {
				if n := e.count - out[e.video]; n > 0 {
					cands = append(cands, demandEntry{video: e.video, count: n})
				}
			}
		}
		slices.SortFunc(cands, byCountThenVideo)
		for _, c := range cands {
			if budget <= 0 || len(row) >= cacheCap {
				break
			}
			row = append(row, int32(c.video))
			budget -= c.count
		}
	}
	slices.Sort(row)
	return row
}

// diff compares the round's inputs against the retained snapshot,
// rewriting the per-hotspot dirty flags and accumulating signature
// dirt. It reports whether any demand total or service capacity changed
// — the condition under which the over/under partition (and hence the
// sweep's networks) may differ from the recorded round's.
func (ds *deltaState) diff(d *Demand, svc []int64, cache []int) (totalsOrSvcChanged bool) {
	m := len(d.Totals)
	ds.dirtyList = ds.dirtyList[:0]
	for h := 0; h < m; h++ {
		demandChanged := d.Totals[h] != ds.demand.Totals[h] ||
			!slices.Equal(d.row(h), ds.demand.row(h))
		ds.demandDirty[h] = demandChanged
		ds.svcDirty[h] = svc[h] != ds.svc[h]
		ds.cacheDirty[h] = cache[h] != ds.cache[h]
		if d.Totals[h] != ds.demand.Totals[h] || ds.svcDirty[h] {
			totalsOrSvcChanged = true
		}
		if demandChanged && !ds.sigDirty[h] {
			ds.sigDirty[h] = true
			ds.sigDirtyList = append(ds.sigDirtyList, h)
		}
		if demandChanged || ds.svcDirty[h] || ds.cacheDirty[h] {
			ds.dirtyList = append(ds.dirtyList, h)
		}
	}
	return totalsOrSvcChanged
}

// refreshClusters is the memoised contentClusters: recompute only the
// signatures marked dirty since the last clustering round, patch the
// retained shared-video counts for the signatures that actually
// changed, and re-cut the dendrogram only then. The cluster epoch bumps
// only when the resulting cut differs, which is what invalidates sweep
// replay.
func (ds *deltaState) refreshClusters(s *Scheduler, d *Demand) ([]int, int, error) {
	m := len(s.world.Hotspots)
	var t *demandTable
	if ds.sigs == nil || len(ds.sigDirtyList) > 0 {
		t = s.demandTable(d)
	}

	if ds.sigs == nil {
		// Cold: compute everything, exactly like contentClusters.
		ds.sigs = make([][]int32, m)
		for h := 0; h < m; h++ {
			ds.sigs[h] = s.signature(t, h)
		}
		ds.sigDirtyList = ds.sigDirtyList[:0]
		for h := range ds.sigDirty {
			ds.sigDirty[h] = false
		}
		ds.shared = make([]uint32, m*m)
		ds.fillShared(s)
		if err := ds.recut(s); err != nil {
			return nil, 0, err
		}
		return ds.clusterOf, ds.nClusters, nil
	}

	var changed []int
	for _, h := range ds.sigDirtyList {
		if sig := s.signature(t, h); !slices.Equal(sig, ds.sigs[h]) {
			ds.sigs[h] = sig
			changed = append(changed, h)
		}
		ds.sigDirty[h] = false
	}
	ds.sigDirtyList = ds.sigDirtyList[:0]
	if len(changed) == 0 {
		return ds.clusterOf, ds.nClusters, nil
	}

	// Patch the rows of the changed signatures by merge walks (FillShared
	// is tested == to SharedRuns on every cell); above ~m/8 changed rows
	// the full refill is cheaper than m walks per row.
	if len(changed)*8 > m {
		ds.fillShared(s)
	} else {
		for _, h := range changed {
			for j := 0; j < m; j++ {
				v := uint32(similarity.SharedRuns(ds.sigs[h], ds.sigs[j]))
				ds.shared[h*m+j], ds.shared[j*m+h] = v, v
			}
		}
	}
	if err := ds.recut(s); err != nil {
		return nil, 0, err
	}
	return ds.clusterOf, ds.nClusters, nil
}

// fillShared recounts every pair's shared signature videos.
func (ds *deltaState) fillShared(s *Scheduler) {
	at := make([]int32, 1, len(ds.sigs)+1)
	var ids []int32
	for _, sig := range ds.sigs {
		ids = append(ids, sig...)
		at = append(at, int32(len(ids)))
	}
	similarity.FillShared(ds.shared, ids, at, par.Workers(s.params.Workers))
}

// recut ranks the retained counts into the arena's span, re-runs the
// chain and the dendrogram cut on it and bumps the cluster epoch only if
// the cut's content changed. The chain consumes the span, not the
// counts, so they survive the call.
func (ds *deltaState) recut(s *Scheduler) error {
	m := len(ds.sigs)
	s.ar.span.RankShared(m, ds.shared, par.Workers(s.params.Workers))
	dendro, err := s.ar.clusterSpan(m)
	if err != nil {
		return fmt.Errorf("core: clustering hotspots: %w", err)
	}
	groups := dendro.Cut(s.params.ClusterCut)
	clusterOf := make([]int, m)
	for k, grp := range groups {
		for _, h := range grp {
			clusterOf[h] = k
		}
	}
	if ds.clusterOf == nil || ds.nClusters != len(groups) || !slices.Equal(clusterOf, ds.clusterOf) {
		ds.clusterOf = clusterOf
		ds.nClusters = len(groups)
		ds.clusterEpoch++
	}
	return nil
}

// retain snapshots the round's inputs and replication outputs.
func (ds *deltaState) retain(d *Demand, svc []int64, cache []int, plan *Plan) {
	ds.demand = d
	copy(ds.svc, svc)
	copy(ds.cache, cache)
	ds.redirects = plan.Redirects
	ds.placement = plan.Placement
	ds.unrealized = plan.Stats.UnrealizedFlow
	ds.haveState = true
}

// rebuildFootprints recomputes the per-hotspot redirect footprints.
func (ds *deltaState) rebuildFootprints(redirects []Redirect) {
	m := len(ds.demandDirty)
	ds.outFoot, ds.inFoot = footprints(m, redirects)
}

// deltaVerifyPlan shadow-runs the full solver (quiet: no events, no
// metrics) and compares plan digests. On mismatch the full plan wins
// and the retained state is dropped.
func (s *Scheduler) deltaVerifyPlan(d *Demand, svc []int64, cache []int, plan *Plan) *Plan {
	full, err := s.scheduleFull(d, svc, cache, nil, true)
	if err != nil || full.Digest() != plan.Digest() {
		s.deltaTotals.VerifyMismatches++
		s.delta = nil
		if s.params.Obs != nil {
			s.params.Obs.Counter("core.delta.verify_mismatch").Inc()
		}
		if err != nil {
			// The shadow itself failed; keep the delta plan but start
			// cold next round.
			return plan
		}
		full.Stats.DeltaFallback = true
		return full
	}
	return plan
}

// publishDelta folds one delta-mode round's counters into the registry.
func publishDelta(r *obs.Registry, st *Stats) {
	if r == nil {
		return
	}
	if st.DeltaRound {
		r.Counter("core.delta.rounds").Inc()
		if st.SweepReplayed {
			r.Counter("core.delta.sweep_replays").Inc()
		}
		r.Counter("core.delta.patched_rows").Add(int64(st.PatchedRows))
	}
	if st.DeltaFallback {
		r.Counter("core.delta.fallbacks").Inc()
	}
}

// footprints builds the per-hotspot out/in redirect footprints
// (video → count) of a redirect set.
func footprints(m int, redirects []Redirect) (out, in []map[trace.VideoID]int64) {
	out = make([]map[trace.VideoID]int64, m)
	in = make([]map[trace.VideoID]int64, m)
	for _, r := range redirects {
		o := out[r.From]
		if o == nil {
			o = make(map[trace.VideoID]int64)
			out[r.From] = o
		}
		o[r.Video] += r.Count
		i := in[r.To]
		if i == nil {
			i = make(map[trace.VideoID]int64)
			in[r.To] = i
		}
		i[r.Video] += r.Count
	}
	return out, in
}

// footEqual reports equality of two footprints (nil equals empty).
func footEqual(a, b map[trace.VideoID]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for v, n := range a {
		if b[v] != n {
			return false
		}
	}
	return true
}

// flowsEqual reports equality of two (i,j) flow maps (nil equals empty).
func flowsEqual(a, b map[int64]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, f := range a {
		if b[k] != f {
			return false
		}
	}
	return true
}
