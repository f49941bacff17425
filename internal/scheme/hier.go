package scheme

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/region"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Hierarchical is the two-level (cross-region) scheduler the paper
// proposes via its region-partition prior work (Sec. VI): RBCAer across
// region-level virtual hotspots, the cross-region flow realised as
// per-video demand moves between concrete hotspots, then RBCAer within
// each region. The second level is a sharded round without its
// boundary pass (the first level already did the cross-region work),
// and the per-request targets come from MaterializePlan. It implements
// sim.Scheduler and carries nothing from slot to slot.
type Hierarchical struct {
	cellKm float64

	world   *trace.World
	virtual *core.Scheduler
	local   *shard.Scheduler
}

var _ sim.Scheduler = (*Hierarchical)(nil)

// NewHierarchical returns a hierarchical policy over a grid partition
// with the given cell size (0 selects shard.DefaultCellKm, 3 km).
func NewHierarchical(cellKm float64) *Hierarchical {
	return &Hierarchical{cellKm: cellKm}
}

// Name implements sim.Scheduler.
func (p *Hierarchical) Name() string { return "RBCAer-hierarchical" }

// build prepares the two levels for a world. Both see one partition:
// the sharded scheduler computes it and the virtual world reads it
// back.
func (p *Hierarchical) build(world *trace.World) error {
	cell := p.cellKm
	if cell == 0 {
		cell = shard.DefaultCellKm
	}
	local, err := shard.New(world, shard.Params{CellKm: cell, DisableBoundary: true})
	if err != nil {
		return err
	}
	virtual, err := region.VirtualWorld(world, local.Partition())
	if err != nil {
		return err
	}
	// The cross-region round sweeps θ over the cell scale; the
	// per-region rounds run RBCAer's defaults.
	vp := core.DefaultParams()
	vp.Theta1 = cell
	vp.Theta2 = 3 * cell
	vp.DeltaD = cell
	virtualSched, err := core.New(virtual, vp)
	if err != nil {
		return fmt.Errorf("building virtual scheduler: %w", err)
	}
	p.world, p.virtual, p.local = world, virtualSched, local
	return nil
}

// Schedule implements sim.Scheduler.
func (p *Hierarchical) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	if p.local == nil || p.world != ctx.World {
		if err := p.build(ctx.World); err != nil {
			return nil, fmt.Errorf("scheme: building %s: %w", p.Name(), err)
		}
	}
	part := p.local.Partition()
	capacity := ctx.EffectiveCapacity()
	cache := ctx.EffectiveCacheCapacity()

	// Stage 1: cross-region round on the virtual deployment.
	virtualDemand := core.NewDemand(part.NumRegions())
	virtualCap := make([]int64, part.NumRegions())
	for h, k := range part.OfHotspot {
		ctx.Demand.Each(h, func(v trace.VideoID, n int64) {
			virtualDemand.Add(trace.HotspotID(k), v, n)
		})
		virtualCap[k] += capacity[h]
	}
	virtualDemand.Fold()
	virtualPlan, err := p.virtual.ScheduleRound(virtualDemand, core.Constraints{Service: virtualCap})
	if err != nil {
		return nil, fmt.Errorf("scheme: virtual round: %w", err)
	}

	// Cross-region moves edit a working copy of the demand before the
	// per-region rounds run.
	working := ctx.Demand.Clone()
	cross := realizeCross(working, part, virtualPlan.Redirects, capacity)
	working.Fold()

	// Stage 2: per-region rounds on the adjusted demand.
	plan, err := p.local.ScheduleRound(working, core.Constraints{Service: capacity, Cache: cache})
	if err != nil {
		return nil, fmt.Errorf("scheme: local rounds: %w", err)
	}

	// Cross-redirected videos must be cached at their targets; drop
	// moves whose target cache is already full. Moves compete for the
	// last slots in ascending (source hotspot, video) order, and keep
	// their realisation order within one (source, video) queue.
	slices.SortStableFunc(cross, func(a, b core.Redirect) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Video, b.Video))
	})
	kept := cross[:0]
	added := make([][]int32, len(cache))
	for _, mv := range cross {
		if !plan.Placement.Contains(int(mv.To), int(mv.Video)) && !slices.Contains(added[mv.To], int32(mv.Video)) {
			if plan.Placement.Len(int(mv.To))+len(added[mv.To]) >= cache[mv.To] {
				continue
			}
			added[mv.To] = append(added[mv.To], int32(mv.Video))
		}
		kept = append(kept, mv)
	}
	plan.Placement = plan.Placement.WithAdded(added)

	// Per-request targets: each (hotspot, video) queue drains its cross
	// moves first, then the local plan's redirects.
	plan.Redirects = append(kept, plan.Redirects...)
	return MaterializePlan(ctx, plan)
}

// realizeCross turns the virtual plan's region-to-region redirects into
// hotspot-level demand moves, applied to d and returned as redirects in
// realisation order: take from the most-loaded holders in the source
// region, give to the hotspots with the most slack in the target
// region. Whatever cannot be realised stays at its sources and is
// handled by the per-region rounds (or the CDN).
func realizeCross(d *core.Demand, part *region.Partition, virtual []core.Redirect, capacity []int64) []core.Redirect {
	slack := make([]int64, len(capacity))
	for h := range slack {
		slack[h] = capacity[h] - d.Totals[h]
	}
	var cross []core.Redirect
	for _, rd := range virtual {
		remaining := rd.Count
		sources := holdersByLoad(d, part.Regions[rd.From], rd.Video)
		targets := byDescendingSlack(slack, part.Regions[rd.To])
		ti := 0
		for _, src := range sources {
			if remaining <= 0 {
				break
			}
			avail := d.Count(src, rd.Video)
			for avail > 0 && remaining > 0 && ti < len(targets) {
				tgt := targets[ti]
				if slack[tgt] <= 0 {
					ti++
					continue
				}
				amt := min(avail, remaining, slack[tgt])
				d.Move(src, tgt, rd.Video, amt)
				slack[tgt] -= amt
				slack[src] += amt
				cross = append(cross, core.Redirect{
					From:  trace.HotspotID(src),
					To:    trace.HotspotID(tgt),
					Video: rd.Video,
					Count: amt,
				})
				avail -= amt
				remaining -= amt
			}
		}
	}
	return cross
}

// holdersByLoad lists a region's hotspots holding demand for v, ordered
// by descending total load (most overloaded first) then ascending id.
func holdersByLoad(d *core.Demand, members []int, v trace.VideoID) []int {
	var out []int
	for _, h := range members {
		if d.Count(h, v) > 0 {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if d.Totals[out[a]] != d.Totals[out[b]] {
			return d.Totals[out[a]] > d.Totals[out[b]]
		}
		return out[a] < out[b]
	})
	return out
}

// byDescendingSlack orders a region's hotspots by remaining slack.
func byDescendingSlack(slack []int64, members []int) []int {
	out := append([]int(nil), members...)
	sort.Slice(out, func(a, b int) bool {
		if slack[out[a]] != slack[out[b]] {
			return slack[out[a]] > slack[out[b]]
		}
		return out[a] < out[b]
	})
	return out
}
