package core

// Incremental delta scheduling (DESIGN.md §12).
//
// Delta mode retains what the previous round produced — its demand
// snapshot, its cluster cut, its θ sweep's outputs and its replication
// outputs — and recomputes only what an exact input diff invalidates.
// It memoises outputs, never solver state: a round whose sweep inputs
// (partition, totals, service capacities, cluster cut) all equal the
// recorded round's restores that round's flows and counts, since the
// sweep is a deterministic function of those inputs; any other round
// runs the sweep through the full round's own code. Every reuse is
// exact, so delta plans are digest-identical to full solves.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/trace"
)

// sweepMemo is what the θ sweep of the last round that ran it produced,
// everything a round whose sweep inputs are unchanged needs of it.
type sweepMemo struct {
	// flows is the sweep's accumulated (i,j) flow map, owned by the memo
	// (copied, never aliased): replicateDelta also compares the current
	// round's flows against it to skip stage A.
	flows map[int64]int64
	// The sweep's Stats and its MCMF augmenting-path count.
	moved         int64
	iterations    int
	directEdges   int
	guideNodes    int
	distanceCalcs int64
	paths         int64
	// clusterEpoch is the delta state's cluster epoch the sweep ran
	// under.
	clusterEpoch int64
	// valid reports the recorded round was not degraded; a degraded
	// sweep (recovered solver errors) is never restored.
	valid bool
}

// keep records a round's sweep outputs: its flow map, the sweep's
// counts in st and its path count.
func (mm *sweepMemo) keep(flows map[int64]int64, st *Stats, paths, clusterEpoch int64) {
	if mm.flows == nil {
		mm.flows = make(map[int64]int64, len(flows))
	} else {
		clear(mm.flows)
	}
	for k, f := range flows {
		mm.flows[k] = f
	}
	mm.moved, mm.iterations = st.MovedFlow, st.Iterations
	mm.directEdges, mm.guideNodes = st.DirectEdges, st.GuideNodes
	mm.distanceCalcs, mm.paths = st.DistanceCalcs, paths
	mm.clusterEpoch, mm.valid = clusterEpoch, !st.Degraded
}

// restore imposes the recorded sweep on a round of m hotspots: its flows
// into flows, each source's surplus reduced by what it sent (exactly
// what the sweep's extraction leaves in phiOver) and its counts into
// st. It returns the recorded MCMF path count.
func (mm *sweepMemo) restore(flows map[int64]int64, phiOver []int64, st *Stats, m int) int64 {
	for k, f := range mm.flows {
		flows[k] = f
		i, _ := unpackPair(k, m)
		phiOver[i] -= f
	}
	st.MovedFlow, st.Iterations = mm.moved, mm.iterations
	st.DirectEdges, st.GuideNodes = mm.directEdges, mm.guideNodes
	st.DistanceCalcs = mm.distanceCalcs
	st.SweepReplayed = true
	return mm.paths
}

// deltaState is the scheduler's retained cross-round memoisation state.
// It is dropped wholesale (next round solves cold) on any round error.
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

	// rowsChanged reports a demand row changed since the last round that
	// clustered (a round that skips clustering leaves it set).
	rowsChanged bool
	// The current cut; clusterEpoch bumps only when its content changes.
	clusterOf    []int
	nClusters    int
	clusterEpoch int64

	// memo is the sweep of the last round that ran one.
	memo sweepMemo

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
}

func newDeltaState(m int) *deltaState {
	return &deltaState{
		demandDirty: make([]bool, m),
		svcDirty:    make([]bool, m),
		cacheDirty:  make([]bool, m),
		svc:         make([]int64, m),
		cache:       make([]int, m),
	}
}

// scheduleDelta is the delta-mode round entry: diff the inputs against
// the retained snapshot and pick a full round or a delta round.
func (s *Scheduler) scheduleDelta(d *Demand, svc []int64, cache []int) (*Plan, error) {
	m := len(s.world.Hotspots)
	if s.delta == nil {
		s.delta = newDeltaState(m)
	}
	ds := s.delta

	warm := ds.haveState
	full, replayable := true, false
	if warm {
		totalsOrSvcChanged := ds.diff(d, svc, cache)
		full = float64(len(ds.dirtyList)) > s.params.DeltaThreshold*float64(m)
		replayable = !full && !totalsOrSvcChanged
	}
	plan, err := s.deltaRound(d, svc, cache, full, replayable)
	if err != nil {
		// Drop the retained state: the next round re-solves cold.
		s.delta = nil
		return nil, err
	}
	// The cold first round is a full solve, not a fallback.
	plan.Stats.DeltaFallback = warm && full
	publishDelta(s.params.Obs, &plan.Stats)
	return plan, nil
}

// deltaRound runs one delta-mode round through the full round's phases.
// A full round (the cold one, or a drift fallback) is scheduleFull's
// round. Otherwise the memoised sweep is restored instead of run when
// the round is replayable (no demand total or service capacity changed)
// and its cut is the memo's, and Procedure 1 patches only the dirty
// rows. Either way the round's own outputs are retained for the next.
func (s *Scheduler) deltaRound(d *Demand, svc []int64, cache []int, full, replayable bool) (*Plan, error) {
	ds := s.delta
	m := len(s.world.Hotspots)
	ro := newRoundObs(s.params)
	over, under, phiOver, phiUnder := s.partition(d, svc)
	stats := partitionStats(over, under, phiOver, phiUnder)
	stats.DeltaRound = !full
	flows := s.ar.emptyFlows()
	var mcmfPaths int64
	if stats.MaxFlow > 0 {
		clusterOf, err := s.clusterPhase(d, &stats, &ro)
		if err != nil {
			return nil, err
		}
		if replayable && ds.memo.valid && ds.memo.clusterEpoch == ds.clusterEpoch {
			tBalance := ro.now()
			mcmfPaths = ds.memo.restore(flows, phiOver, &stats, m)
			stats.Phases.Balance = ro.since(tBalance)
		} else {
			mcmfPaths = s.runSweep(over, under, phiOver, phiUnder, clusterOf, flows, &stats, &ro)
		}
	}

	var plan *Plan
	rebuild := true
	if full {
		var err error
		if plan, err = s.finishRound(d, &stats, &ro, over, phiOver, flows, svc, cache, mcmfPaths); err != nil {
			return nil, err
		}
	} else {
		tRep := ro.now()
		redirects, placement, unrealized, replicas, patched, skippedA, err := s.replicateDelta(d, flows, svc, cache)
		if err != nil {
			return nil, err
		}
		stats.UnrealizedFlow = unrealized
		stats.Replicas = replicas
		stats.PatchedRows = patched
		stats.Phases.Replicate = ro.since(tRep)
		ro.emit("delta",
			obs.I("patched_rows", int64(patched)),
			obs.I("sweep_replayed", boolAttr(stats.SweepReplayed)),
			obs.I("skipped_stage_a", boolAttr(skippedA)))
		plan = s.assemblePlan(&stats, &ro, over, phiOver, flows, redirects, placement, mcmfPaths)
		rebuild = !skippedA
	}

	if !stats.SweepReplayed {
		ds.memo.keep(flows, &plan.Stats, mcmfPaths, ds.clusterEpoch)
	}
	ds.retain(d, svc, cache, plan)
	if rebuild {
		ds.outFoot, ds.inFoot = footprints(m, plan.Redirects)
	}
	return plan, nil
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
	skippedA = flowsEqual(flows, ds.memo.flows)
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
// rewriting the per-hotspot dirty flags and noting a changed demand row
// for the cluster phase. It reports whether any demand total or service
// capacity changed — the condition under which the over/under partition
// (and hence the sweep) may differ from the recorded round's.
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
		ds.rowsChanged = ds.rowsChanged || demandChanged
		if demandChanged || ds.svcDirty[h] || ds.cacheDirty[h] {
			ds.dirtyList = append(ds.dirtyList, h)
		}
	}
	return totalsOrSvcChanged
}

// clusters is contentClusters for a delta-mode round. The cut is a
// function of the demand rows alone, so it is skipped while no row has
// changed since the last round that clustered; the cluster epoch bumps
// only when the new cut differs from the retained one.
func (ds *deltaState) clusters(s *Scheduler, d *Demand) ([]int, int, error) {
	if ds.clusterOf != nil && !ds.rowsChanged {
		return ds.clusterOf, ds.nClusters, nil
	}
	clusterOf, n, err := s.contentClusters(d)
	if err != nil {
		return nil, 0, err
	}
	ds.rowsChanged = false
	if !slices.Equal(clusterOf, ds.clusterOf) {
		ds.clusterOf, ds.nClusters = clusterOf, n
		ds.clusterEpoch++
	}
	return ds.clusterOf, ds.nClusters, nil
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
