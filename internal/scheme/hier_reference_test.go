package scheme

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/region"
	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/trace"
)

// referenceHier is the hierarchical policy as it stood before it moved
// onto shard's split/solve/merge and MaterializePlan (region.Policy,
// verbatim): its own serial per-region core.Scheduler loop and its own
// request materialiser. The one edit is that the cache-full drop pass
// walks the cross queues in ascending (source hotspot, video) key order
// instead of map order — the determinism fix the move carried.
type referenceHier struct {
	CellKm float64

	world        *trace.World
	part         *region.Partition
	virtualSched *core.Scheduler
	localScheds  []*core.Scheduler
	toGlobal     [][]int
}

func (p *referenceHier) build(world *trace.World) error {
	cell := p.CellKm
	if cell == 0 {
		cell = 3.0
	}
	if cell < 0 {
		return fmt.Errorf("region: negative cell size %v", cell)
	}
	part, err := region.GridPartition(world, cell)
	if err != nil {
		return err
	}
	if err := part.Validate(len(world.Hotspots)); err != nil {
		return fmt.Errorf("region: partitioner produced an invalid partition: %w", err)
	}
	virtual, err := region.VirtualWorld(world, part)
	if err != nil {
		return err
	}

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
		sub, tg, err := region.SubWorld(world, members)
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

type referenceCrossMove struct {
	target int
	amt    int64
}

func (p *referenceHier) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("region: nil context")
	}
	if p.world != ctx.World {
		if err := p.build(ctx.World); err != nil {
			return nil, err
		}
	}
	m := len(ctx.World.Hotspots)

	working := ctx.Demand.Clone()

	// Stage 1: cross-region round on the virtual deployment.
	virtualDemand := core.NewDemand(p.part.NumRegions())
	for h := 0; h < m; h++ {
		k := p.part.OfHotspot[h]
		working.Each(h, func(v trace.VideoID, n int64) {
			virtualDemand.Add(trace.HotspotID(k), v, n)
		})
	}
	virtualCap := make([]int64, p.part.NumRegions())
	for h := 0; h < m; h++ {
		virtualCap[p.part.OfHotspot[h]] += ctx.EffectiveCapacity()[h]
	}
	virtualPlan, err := p.virtualSched.ScheduleRound(virtualDemand, core.Constraints{Service: virtualCap})
	if err != nil {
		return nil, fmt.Errorf("region: virtual round: %w", err)
	}

	crossQueues := make(map[int64][]*referenceCrossMove)
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
			avail := working.Count(src, rd.Video)
			for avail > 0 && remaining > 0 && ti < len(targets) {
				tgt := targets[ti]
				if slack[tgt] <= 0 {
					ti++
					continue
				}
				amt := min(min(avail, remaining), slack[tgt])
				working.Move(src, tgt, rd.Video, amt)
				slack[tgt] -= amt
				slack[src] += amt
				crossInflow[tgt] += amt
				crossQueues[qKey(src, rd.Video)] = append(
					crossQueues[qKey(src, rd.Video)], &referenceCrossMove{target: tgt, amt: amt})
				avail -= amt
				remaining -= amt
			}
		}
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
			working.Each(h, func(v trace.VideoID, n int64) {
				if n > 0 {
					localDemand.Add(trace.HotspotID(li), v, n)
				}
			})
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
			finalPlacement[h] = similarity.NewSet()
			for _, v := range localPlan.Placement.Row(li) {
				finalPlacement[h].Add(int(v))
			}
			cacheUsed[h] = localPlan.Placement.Len(li)
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
	keys := make([]int64, 0, len(crossQueues))
	for key := range crossQueues {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		moves := crossQueues[key]
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
	return &sim.Assignment{Placement: placementOf(finalPlacement), Target: targets}, nil
}

// slotContexts packages every non-empty slot of a generated trace as a
// scheduling context.
func slotContexts(t *testing.T, cfg trace.Config) []*sim.SlotContext {
	t.Helper()
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	index, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}
	var out []*sim.SlotContext
	for slot, reqs := range tr.BySlot() {
		if len(reqs) == 0 {
			continue
		}
		ctx, err := sim.BuildSlotContext(world, index, slot, reqs, stats.SplitRand(cfg.Seed, "hier-reference"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ctx)
	}
	return out
}

// cityConfig is a small city-shaped trace: several demand regions, a
// few slots, enough load that both levels of the policy move flow.
func cityConfig(seed int64) trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	cfg.NumHotspots, cfg.NumVideos, cfg.NumUsers, cfg.NumRequests = 60, 800, 2500, 6000
	cfg.NumRegions, cfg.Slots = 6, 3
	return cfg
}

// zeroSlackSlot is the two-region world of region/zeroslack_test.go:
// region A is one overloaded hotspot, region B holds the slack split
// across b1 and b2 plus b3 with none, so the cross-move realisation
// exhausts b1, skips it at slack 0 and spills into b2. b2Cache = 0
// drives the spill into a target that cannot cache the video.
func zeroSlackSlot(t *testing.T, b2Cache int) *sim.SlotContext {
	t.Helper()
	world := &trace.World{
		Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: 12, MaxY: 6},
		Hotspots: []trace.Hotspot{
			{ID: 0, Location: geo.Point{X: 1, Y: 1}, ServiceCapacity: 2, CacheCapacity: 4},
			{ID: 1, Location: geo.Point{X: 8, Y: 1}, ServiceCapacity: 4, CacheCapacity: 4},
			{ID: 2, Location: geo.Point{X: 8.5, Y: 1}, ServiceCapacity: 2, CacheCapacity: b2Cache},
			{ID: 3, Location: geo.Point{X: 9, Y: 1}, ServiceCapacity: 3, CacheCapacity: 4},
		},
		NumVideos:     16,
		CDNDistanceKm: 14,
	}
	if err := world.Validate(); err != nil {
		t.Fatalf("hand-built world invalid: %v", err)
	}
	var requests []trace.Request
	add := func(h int, v trace.VideoID, n int) {
		for i := 0; i < n; i++ {
			id := len(requests)
			requests = append(requests, trace.Request{ID: id, User: trace.UserID(id), Video: v, Location: world.Hotspots[h].Location})
		}
	}
	add(0, 7, 6)
	add(1, 3, 2)
	add(3, 4, 3)
	index, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := sim.BuildSlotContext(world, index, 0, requests, stats.SplitRand(1, "hier-reference"))
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// degrade returns ctx with seeded fault-style capacity vectors: each
// hotspot keeps its service and cache capacity, loses a fraction of
// them, or goes offline (both 0).
func degrade(ctx *sim.SlotContext, seed int64) *sim.SlotContext {
	rng := rand.New(rand.NewSource(seed))
	out := *ctx
	out.Capacity = make([]int64, len(ctx.World.Hotspots))
	out.CacheCapacity = make([]int, len(ctx.World.Hotspots))
	for h, hs := range ctx.World.Hotspots {
		f := []float64{1, 1, 0.5, 0.25, 0}[rng.Intn(5)]
		out.Capacity[h] = int64(float64(hs.ServiceCapacity) * f)
		out.CacheCapacity[h] = int(float64(hs.CacheCapacity) * f)
	}
	return &out
}

// cacheTight returns ctx with every cache cut to a handful of slots, so
// cross-moved videos compete for the last slots at their targets.
func cacheTight(ctx *sim.SlotContext, seed int64) *sim.SlotContext {
	rng := rand.New(rand.NewSource(seed))
	out := *ctx
	out.CacheCapacity = make([]int, len(ctx.World.Hotspots))
	for h := range out.CacheCapacity {
		out.CacheCapacity[h] = rng.Intn(4)
	}
	return &out
}

// regionOffline returns ctx with every hotspot of grid region k (at the
// given cell size) offline.
func regionOffline(t *testing.T, ctx *sim.SlotContext, cellKm float64, k int) *sim.SlotContext {
	t.Helper()
	part, err := region.GridPartition(ctx.World, cellKm)
	if err != nil {
		t.Fatal(err)
	}
	out := *ctx
	out.Capacity = append([]int64(nil), ctx.EffectiveCapacity()...)
	out.CacheCapacity = append([]int(nil), ctx.EffectiveCacheCapacity()...)
	for _, h := range part.Regions[k%part.NumRegions()] {
		out.Capacity[h], out.CacheCapacity[h] = 0, 0
	}
	return &out
}

// TestHierarchicalMatchesReference holds the policy to the one it
// replaced: the same placement and the same target for every request,
// slot after slot on one policy instance each.
func TestHierarchicalMatchesReference(t *testing.T) {
	families := map[string]func(t *testing.T, cellKm float64) []*sim.SlotContext{
		"city": func(t *testing.T, _ float64) []*sim.SlotContext {
			return append(slotContexts(t, cityConfig(11)), slotContexts(t, cityConfig(12))...)
		},
		"zero-slack": func(t *testing.T, _ float64) []*sim.SlotContext {
			return []*sim.SlotContext{zeroSlackSlot(t, 4), zeroSlackSlot(t, 0)}
		},
		"degraded": func(t *testing.T, _ float64) []*sim.SlotContext {
			var out []*sim.SlotContext
			for i, ctx := range slotContexts(t, cityConfig(13)) {
				out = append(out, degrade(ctx, int64(i)))
			}
			return out
		},
		"cache-tight": func(t *testing.T, _ float64) []*sim.SlotContext {
			var out []*sim.SlotContext
			for i, ctx := range slotContexts(t, cityConfig(14)) {
				out = append(out, cacheTight(ctx, int64(i)))
			}
			return out
		},
		"region-offline": func(t *testing.T, cellKm float64) []*sim.SlotContext {
			var out []*sim.SlotContext
			for i, ctx := range slotContexts(t, cityConfig(15)) {
				out = append(out, regionOffline(t, ctx, cellKm, i))
			}
			return out
		},
	}
	for name, family := range families {
		// moved counts the requests the family's slots served across a
		// region boundary: an oracle over slots the first level never
		// touched would pin nothing.
		moved := 0
		for _, cellKm := range []float64{2, 3, 5} {
			t.Run(fmt.Sprintf("%s/cell=%v", name, cellKm), func(t *testing.T) {
				got, want := NewHierarchical(cellKm), &referenceHier{CellKm: cellKm}
				for _, ctx := range family(t, cellKm) {
					w, werr := want.Schedule(ctx)
					g, gerr := got.Schedule(ctx)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("slot %d: error %v, reference %v", ctx.Slot, gerr, werr)
					}
					if werr != nil {
						continue
					}
					if !reflect.DeepEqual(g.Target, w.Target) {
						t.Errorf("slot %d: targets diverge from the reference", ctx.Slot)
					}
					if !g.Placement.Equal(&w.Placement) {
						t.Errorf("slot %d: placement diverges from the reference", ctx.Slot)
					}
					for r, tgt := range g.Target {
						if tgt != sim.CDN && want.part.OfHotspot[tgt] != want.part.OfHotspot[ctx.Nearest[r]] {
							moved++
						}
					}
				}
			})
		}
		if moved == 0 {
			t.Errorf("%s: no request was served across regions at any cell size", name)
		}
	}
}

// placementOf lays per-hotspot sets out as placement runs.
func placementOf(sets []similarity.Set) core.PlacementRuns {
	out := core.PlacementRuns{Off: []int{0}}
	for _, set := range sets {
		for _, v := range set.Sorted() {
			out.IDs = append(out.IDs, int32(v))
		}
		out.Off = append(out.Off, len(out.IDs))
	}
	return out
}
