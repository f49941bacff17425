// Package shard federates the RBCAer scheduling round across
// geo-partitions of the world: each shard runs its own core.Scheduler
// (with its own round arena and, optionally, retained delta state) over
// a bounded worker pool, and a deterministic boundary-reconciliation
// pass offloads residual overload across shard edges afterwards.
//
// The merged plan obeys the repo-wide determinism contract: for a fixed
// world, partition, and demand sequence the plan bytes
// (core.Plan.Canonical) are identical for any Params.Workers, and with
// a single shard they are identical to a plain global ScheduleRound.
// See DESIGN.md §14 for the merge/reconciliation ordering contract.
package shard

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/region"
	"repro/internal/trace"
)

// DefaultCellKm is the grid cell size used when Params sets no cell
// size.
const DefaultCellKm = 3.0

// Params configure a sharded Scheduler.
type Params struct {
	// CellKm partitions the world with region.GridPartition using this
	// cell size; 0 means DefaultCellKm.
	CellKm float64
	// Local are the core parameters each per-shard scheduler runs
	// with. The zero value means core.DefaultParams() with Workers
	// forced to 1 (shard-level concurrency replaces intra-round
	// fan-out on the small sub-worlds).
	Local core.Params
	// Workers bounds the number of shard rounds solved concurrently;
	// 0 means GOMAXPROCS. Plans are byte-identical for any value.
	Workers int
	// DisableBoundary skips the boundary-reconciliation pass, leaving
	// each shard's residual overload stranded to the CDN. Used by the
	// shard-size sweep to isolate the cost of federation itself, and by
	// scheme.NewHierarchical, whose cross-region round runs first.
	DisableBoundary bool
	// Obs, when non-nil, receives shard counters, deterministic
	// per-shard solve histograms, and wall-clock phase timers.
	Obs *obs.Registry
}

// Scheduler schedules rounds by fanning out over per-shard RBCAer
// schedulers and merging their plans. Like core.Scheduler it is
// designed for sequential use: one round at a time.
type Scheduler struct {
	world    *trace.World
	params   Params
	part     *region.Partition
	subs     []*trace.World
	toGlobal [][]int
	scheds   []*core.Scheduler

	// scratch reused between rounds
	rounds []shardRound
}

type shardRound struct {
	plan  *core.Plan
	err   error
	solve time.Duration
}

// New builds a sharded scheduler over world. The partition is computed
// once up front; every shard gets its own core.Scheduler so round
// arenas and delta state stay shard-local.
func New(world *trace.World, p Params) (*Scheduler, error) {
	if world == nil {
		return nil, fmt.Errorf("shard: nil world")
	}
	if p.CellKm < 0 {
		return nil, fmt.Errorf("shard: negative cell size %v", p.CellKm)
	}
	cellKm := p.CellKm
	if cellKm == 0 {
		cellKm = DefaultCellKm
	}
	part, err := region.GridPartition(world, cellKm)
	if err != nil {
		return nil, fmt.Errorf("shard: partition: %w", err)
	}
	if err := part.Validate(len(world.Hotspots)); err != nil {
		return nil, fmt.Errorf("shard: partition: %w", err)
	}

	local := p.Local
	if local == (core.Params{}) {
		local = core.DefaultParams()
		local.Workers = 1
	}
	if local.Obs == nil {
		local.Obs = p.Obs
	}

	s := &Scheduler{
		world:    world,
		params:   p,
		part:     part,
		subs:     make([]*trace.World, part.NumRegions()),
		toGlobal: make([][]int, part.NumRegions()),
		scheds:   make([]*core.Scheduler, part.NumRegions()),
		rounds:   make([]shardRound, part.NumRegions()),
	}
	for k, members := range part.Regions {
		sub, toGlobal, err := region.SubWorld(world, members)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		sched, err := core.New(sub, local)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		s.subs[k] = sub
		s.toGlobal[k] = toGlobal
		s.scheds[k] = sched
	}
	return s, nil
}

// World returns the world the scheduler was built for.
func (s *Scheduler) World() *trace.World { return s.world }

// Partition returns the shard partition (read-only).
func (s *Scheduler) Partition() *region.Partition { return s.part }

// NumShards returns the number of shards.
func (s *Scheduler) NumShards() int { return len(s.scheds) }

// ScheduleRound runs one sharded round: split the demand, solve every
// shard concurrently, merge the shard plans in shard-index order, run
// the boundary-reconciliation pass, and rebuild global flows and
// statistics. The returned plan passes invariant.CheckPlan against the
// same demand and constraints.
func (s *Scheduler) ScheduleRound(d *core.Demand, cons core.Constraints) (*core.Plan, error) {
	svc, cache, err := cons.Resolve(s.world, d)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	obsOn := s.params.Obs != nil

	// Split the demand and constraints per shard. Rows are copied
	// entry by entry: per-shard schedulers in delta mode retain the
	// demand they are handed across rounds, so handing them views of
	// the caller's rows would break the delta caller contract.
	subDemands := make([]*core.Demand, len(s.scheds))
	subCons := make([]core.Constraints, len(s.scheds))
	for k, toGlobal := range s.toGlobal {
		sd := core.NewDemand(len(toGlobal))
		ssvc := make([]int64, len(toGlobal))
		scache := make([]int, len(toGlobal))
		for li, g := range toGlobal {
			d.Each(g, func(v trace.VideoID, n int64) {
				sd.Add(trace.HotspotID(li), v, n)
			})
			ssvc[li] = svc[g]
			scache[li] = cache[g]
		}
		sd.Fold()
		subDemands[k] = sd
		subCons[k] = core.Constraints{Service: ssvc, Cache: scache}
	}

	// Solve every shard concurrently. Each goroutine writes only its
	// own slot, so the merge below is independent of worker count.
	rounds := s.rounds
	for k := range rounds {
		rounds[k] = shardRound{}
	}
	par.Strided(len(s.scheds), par.Workers(s.params.Workers), func(k int) {
		var start time.Time
		if obsOn {
			start = time.Now()
		}
		plan, err := s.scheds[k].ScheduleRound(subDemands[k], subCons[k])
		rounds[k].plan, rounds[k].err = plan, err
		if obsOn {
			rounds[k].solve = time.Since(start)
		}
	})
	for k := range rounds {
		if rounds[k].err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, rounds[k].err)
		}
	}

	// Merge in shard-index order (the ordering contract: shard k's
	// redirects precede shard k+1's, boundary moves come last).
	m := len(s.world.Hotspots)
	merged := &core.Plan{OverflowToCDN: make([]int64, m)}
	rows := make([][]int32, m)
	var sumUnrealized int64
	for k := range rounds {
		lp := rounds[k].plan
		tg := s.toGlobal[k]
		for li := range tg {
			rows[tg[li]] = lp.Placement.Row(li)
			merged.OverflowToCDN[tg[li]] = lp.OverflowToCDN[li]
		}
		for _, r := range lp.Redirects {
			merged.Redirects = append(merged.Redirects, core.Redirect{
				From:  trace.HotspotID(tg[r.From]),
				To:    trace.HotspotID(tg[r.To]),
				Video: r.Video,
				Count: r.Count,
			})
		}
		st := &lp.Stats
		merged.Degraded = merged.Degraded || lp.Degraded
		ms := &merged.Stats
		ms.Overloaded += st.Overloaded
		ms.Underutilized += st.Underutilized
		ms.Clusters += st.Clusters
		ms.GuideNodes += st.GuideNodes
		ms.DirectEdges += st.DirectEdges
		ms.Iterations += st.Iterations
		ms.RecoveredErrors += st.RecoveredErrors
		ms.DistanceCalcs += st.DistanceCalcs
		ms.PatchedRows += st.PatchedRows
		ms.DeltaRound = ms.DeltaRound || st.DeltaRound
		ms.DeltaFallback = ms.DeltaFallback || st.DeltaFallback
		ms.SweepReplayed = ms.SweepReplayed || st.SweepReplayed
		ms.Phases = ms.Phases.Add(st.Phases)
		sumUnrealized += st.UnrealizedFlow
		if lp.Events != nil {
			merged.Events = append(merged.Events, lp.Events...)
		}
	}
	merged.Stats.Degraded = merged.Degraded
	for _, row := range rows {
		merged.Placement.AppendRow(row)
	}

	// Boundary reconciliation: offload residual overload across shard
	// edges into other shards' remaining slack.
	var bst boundaryStats
	if !s.params.DisableBoundary {
		var start time.Time
		if obsOn {
			start = time.Now()
		}
		bst = s.reconcile(merged, d, svc, cache)
		if obsOn {
			bst.elapsed = time.Since(start)
		}
	}

	s.finalizeStats(merged, d, svc, sumUnrealized)
	s.publish(merged, bst, rounds)
	return merged, nil
}

// finalizeStats rebuilds the merged plan's flows, ledger and Ω1 from
// the merged redirects so the plan is self-consistent under
// invariant.CheckPlan.
//
// Ledger derivation: totalOut (Σ redirect counts) never exceeds the
// global MaxFlow — per hotspot, outgoing redirects plus overflow equal
// the surplus max(0, λ−s), and inflow at any target stays within its
// deficit max(0, s−λ) (local rounds only target underloaded hotspots;
// the boundary pass moves within measured slack). UnrealizedFlow is
// the per-shard unrealized total clamped so MovedFlow = totalOut +
// UnrealizedFlow respects MovedFlow ≤ MaxFlow: flow a shard moved but
// could not realise returns to overflow and may be re-moved by the
// boundary pass, so the naive sum can double-count.
func (s *Scheduler) finalizeStats(plan *core.Plan, d *core.Demand, svc []int64, sumUnrealized int64) {
	plan.Flows = core.FlowEdges(plan.Redirects, len(s.world.Hotspots))

	var overSum, underSum, totalOut, stranded, replicas int64
	for h := range d.Totals {
		if d.Totals[h] > svc[h] {
			overSum += d.Totals[h] - svc[h]
		} else {
			underSum += svc[h] - d.Totals[h]
		}
	}
	for _, r := range plan.Redirects {
		totalOut += r.Count
	}
	for h := range plan.OverflowToCDN {
		stranded += plan.OverflowToCDN[h]
		replicas += int64(plan.Placement.Len(h))
	}
	maxFlow := overSum
	if underSum < maxFlow {
		maxFlow = underSum
	}
	unrealized := sumUnrealized
	if rest := maxFlow - totalOut; unrealized > rest {
		unrealized = rest
	}
	if unrealized < 0 {
		unrealized = 0
	}

	st := &plan.Stats
	st.MaxFlow = maxFlow
	st.MovedFlow = totalOut + unrealized
	st.UnrealizedFlow = unrealized
	st.StrandedToCDN = stranded
	st.Replicas = replicas

	st.Omega1Km = core.Omega1Km(s.world, plan.Redirects, stranded)
}

// publish emits shard observability: deterministic counters and
// histograms for logical quantities, wall-clock Timers (excluded from
// the deterministic snapshot) for phase durations.
func (s *Scheduler) publish(plan *core.Plan, bst boundaryStats, rounds []shardRound) {
	reg := s.params.Obs
	if reg == nil {
		return
	}
	reg.Counter("shard.rounds").Inc()
	reg.Gauge("shard.count").Set(int64(len(s.scheds)))
	reg.Counter("shard.boundary.moves").Add(bst.moves)
	reg.Counter("shard.boundary.moved_flow").Add(bst.movedFlow)
	reg.Counter("shard.boundary.replicas").Add(bst.replicasAdded)
	reg.Counter("shard.boundary.residual_overflow").Add(plan.Stats.StrandedToCDN)
	reg.Histogram("shard.boundary.moved_per_round", obs.PowersOf2Buckets(24)).Observe(bst.movedFlow)
	movedHist := reg.Histogram("shard.solve.moved_flow", obs.PowersOf2Buckets(24))
	strandedHist := reg.Histogram("shard.solve.stranded", obs.PowersOf2Buckets(24))
	for k := range rounds {
		movedHist.Observe(rounds[k].plan.Stats.MovedFlow)
		strandedHist.Observe(rounds[k].plan.Stats.StrandedToCDN)
		reg.Timer(fmt.Sprintf("shard.phase.solve.%03d", k)).Observe(rounds[k].solve)
		reg.Timer("shard.phase.solve").Observe(rounds[k].solve)
	}
	reg.Timer("shard.phase.boundary").Observe(bst.elapsed)
}
