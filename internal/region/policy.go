package region

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// Policy is the hierarchical (cross-region) scheduler: RBCAer across
// region-level virtual hotspots, then RBCAer within each region, with
// cross-region flows realised as per-video demand movements between
// concrete hotspots. It implements sim.Scheduler.
type Policy struct {
	// CellKm is the grid-partition cell size; 0 selects 3.0 km.
	CellKm float64
	// Partitioner overrides the default grid partitioning (e.g.
	// ClusterPartition via a closure). When nil, GridPartition(CellKm)
	// is used.
	Partitioner func(*trace.World) (*Partition, error)

	world        *trace.World
	part         *Partition
	virtualSched *core.Scheduler
	localScheds  []*core.Scheduler
	toGlobal     [][]int
}

var _ sim.Scheduler = (*Policy)(nil)

// NewPolicy returns a hierarchical policy with the given cell size
// (0 selects 3.0 km).
func NewPolicy(cellKm float64) *Policy {
	return &Policy{CellKm: cellKm}
}

// Name implements sim.Scheduler.
func (p *Policy) Name() string { return "RBCAer-hierarchical" }

// build prepares the partition and schedulers for a world.
func (p *Policy) build(world *trace.World) error {
	cell := p.CellKm
	if cell == 0 {
		cell = 3.0
	}
	if cell < 0 {
		return fmt.Errorf("region: negative cell size %v", cell)
	}
	partition := p.Partitioner
	if partition == nil {
		partition = func(w *trace.World) (*Partition, error) {
			return GridPartition(w, cell)
		}
	}
	part, err := partition(world)
	if err != nil {
		return err
	}
	if err := part.Validate(len(world.Hotspots)); err != nil {
		return fmt.Errorf("region: partitioner produced an invalid partition: %w", err)
	}
	virtual, err := VirtualWorld(world, part)
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
		return fmt.Errorf("region: building virtual scheduler: %w", err)
	}

	localScheds := make([]*core.Scheduler, part.NumRegions())
	toGlobal := make([][]int, part.NumRegions())
	for k, members := range part.Regions {
		sub, tg, err := SubWorld(world, members)
		if err != nil {
			return err
		}
		sched, err := core.New(sub, core.DefaultParams())
		if err != nil {
			return fmt.Errorf("region: building scheduler for region %d: %w", k, err)
		}
		localScheds[k] = sched
		toGlobal[k] = tg
	}

	p.world = world
	p.part = part
	p.virtualSched = virtualSched
	p.localScheds = localScheds
	p.toGlobal = toGlobal
	return nil
}

// crossMove is one realised cross-region movement: amt units of video v
// aggregated at the global source hotspot are served by the global
// target hotspot.
type crossMove struct {
	target int
	amt    int64
}

// Schedule implements sim.Scheduler.
func (p *Policy) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("region: nil context")
	}
	if p.world != ctx.World {
		if err := p.build(ctx.World); err != nil {
			return nil, err
		}
	}
	m := len(ctx.World.Hotspots)

	// Working copy of demand; cross-region moves edit it before the
	// local rounds run.
	working := ctx.Demand.Clone()

	// Stage 1: cross-region round on the virtual deployment.
	virtualDemand := core.NewDemand(p.part.NumRegions())
	for h := 0; h < m; h++ {
		k := p.part.OfHotspot[h]
		for v, n := range working.PerVideo[h] {
			virtualDemand.Add(trace.HotspotID(k), v, n)
		}
	}
	virtualCap := make([]int64, p.part.NumRegions())
	for h := 0; h < m; h++ {
		virtualCap[p.part.OfHotspot[h]] += ctx.EffectiveCapacity()[h]
	}
	virtualPlan, err := p.virtualSched.ScheduleRound(virtualDemand, core.Constraints{Service: virtualCap})
	if err != nil {
		return nil, fmt.Errorf("region: virtual round: %w", err)
	}

	// Realise each cross-region redirect as hotspot-level demand moves:
	// take from the most-loaded holders in the source region, give to
	// the hotspots with the most slack in the target region.
	crossQueues := make(map[int64][]*crossMove)
	crossInflow := make([]int64, m)
	qKey := func(h int, v trace.VideoID) int64 {
		return int64(h)*int64(ctx.World.NumVideos) + int64(v)
	}
	capacity := ctx.EffectiveCapacity()
	cache := ctx.EffectiveCacheCapacity()
	slack := make([]int64, m)
	for h := 0; h < m; h++ {
		slack[h] = capacity[h] - working.Totals[h]
	}
	for _, rd := range virtualPlan.Redirects {
		remaining := rd.Count
		sources := holdersByLoad(working, p.part.Regions[rd.From], rd.Video)
		targets := byDescendingSlack(slack, p.part.Regions[rd.To])
		ti := 0
		for _, src := range sources {
			if remaining <= 0 {
				break
			}
			avail := working.PerVideo[src][rd.Video]
			for avail > 0 && remaining > 0 && ti < len(targets) {
				tgt := targets[ti]
				if slack[tgt] <= 0 {
					ti++
					continue
				}
				amt := min64(min64(avail, remaining), slack[tgt])
				moveDemand(working, src, tgt, rd.Video, amt)
				slack[tgt] -= amt
				slack[src] += amt
				crossInflow[tgt] += amt
				crossQueues[qKey(src, rd.Video)] = append(
					crossQueues[qKey(src, rd.Video)], &crossMove{target: tgt, amt: amt})
				avail -= amt
				remaining -= amt
			}
		}
		// Whatever could not be realised stays at its sources and is
		// handled by the local rounds (or the CDN).
	}

	// Stage 2: per-region local rounds on the adjusted demand.
	type localQueue struct {
		targets []int
		counts  []int64
	}
	localQueues := make(map[int64]*localQueue)
	localInflow := make([]int64, m)
	finalPlacement := make([]similarity.Set, m)
	cacheUsed := make([]int, m)

	for k, members := range p.part.Regions {
		localDemand := core.NewDemand(len(members))
		for li, h := range members {
			for v, n := range working.PerVideo[h] {
				if n > 0 {
					localDemand.Add(trace.HotspotID(li), v, n)
				}
			}
		}
		localCap := make([]int64, len(members))
		localCache := make([]int, len(members))
		for li, h := range members {
			localCap[li] = capacity[h]
			localCache[li] = cache[h]
		}
		localPlan, err := p.localScheds[k].ScheduleRound(localDemand, core.Constraints{Service: localCap, Cache: localCache})
		if err != nil {
			return nil, fmt.Errorf("region: local round %d: %w", k, err)
		}
		for li, h := range members {
			finalPlacement[h] = localPlan.Placement[li]
			cacheUsed[h] = localPlan.Placement[li].Len()
		}
		for _, rd := range localPlan.Redirects {
			src := p.toGlobal[k][rd.From]
			tgt := p.toGlobal[k][rd.To]
			key := qKey(src, rd.Video)
			q := localQueues[key]
			if q == nil {
				q = &localQueue{}
				localQueues[key] = q
			}
			q.targets = append(q.targets, tgt)
			q.counts = append(q.counts, rd.Count)
			localInflow[tgt] += rd.Count
		}
	}

	// Cross-redirected videos must be cached at their targets; drop
	// moves whose target cache is already full.
	for key, moves := range crossQueues {
		v := int(key % int64(ctx.World.NumVideos))
		kept := moves[:0]
		for _, mv := range moves {
			if !finalPlacement[mv.target].Contains(v) {
				if cacheUsed[mv.target] >= cache[mv.target] {
					crossInflow[mv.target] -= mv.amt
					continue
				}
				finalPlacement[mv.target].Add(v)
				cacheUsed[mv.target]++
			}
			kept = append(kept, mv)
		}
		crossQueues[key] = kept
	}

	// Materialise per-request targets: cross queue, then local queue,
	// then local serving within the remaining budget, then the CDN.
	localBudget := make([]int64, m)
	for h := 0; h < m; h++ {
		localBudget[h] = capacity[h] - crossInflow[h] - localInflow[h]
		if localBudget[h] < 0 {
			return nil, fmt.Errorf("region: hotspot %d over-reserved (budget %d)", h, localBudget[h])
		}
	}
	targets := make([]int, len(ctx.Requests))
	for r, req := range ctx.Requests {
		h := ctx.Nearest[r]
		key := qKey(h, req.Video)
		if moves := crossQueues[key]; len(moves) > 0 {
			mv := moves[0]
			targets[r] = mv.target
			mv.amt--
			if mv.amt == 0 {
				crossQueues[key] = moves[1:]
			}
			continue
		}
		if q, ok := localQueues[key]; ok && len(q.targets) > 0 {
			targets[r] = q.targets[0]
			q.counts[0]--
			if q.counts[0] == 0 {
				q.targets = q.targets[1:]
				q.counts = q.counts[1:]
			}
			continue
		}
		if localBudget[h] > 0 && finalPlacement[h].Contains(int(req.Video)) {
			targets[r] = h
			localBudget[h]--
			continue
		}
		targets[r] = sim.CDN
	}
	return &sim.Assignment{Placement: finalPlacement, Target: targets}, nil
}

// holdersByLoad lists a region's hotspots holding demand for v, ordered
// by descending total load (most overloaded first) then ascending id.
func holdersByLoad(d *core.Demand, members []int, v trace.VideoID) []int {
	var out []int
	for _, h := range members {
		if d.PerVideo[h][v] > 0 {
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

// moveDemand shifts amt units of video v from src to tgt.
func moveDemand(d *core.Demand, src, tgt int, v trace.VideoID, amt int64) {
	if d.PerVideo[src][v] == amt {
		delete(d.PerVideo[src], v)
	} else {
		d.PerVideo[src][v] -= amt
	}
	d.Totals[src] -= amt
	if d.PerVideo[tgt] == nil {
		d.PerVideo[tgt] = make(map[trace.VideoID]int64)
	}
	d.PerVideo[tgt][v] += amt
	d.Totals[tgt] += amt
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
