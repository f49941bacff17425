package scheme

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Reactive is the unmanaged-edge baseline: no prefetching and no
// redirection. Each hotspot keeps a reactive cache (LRU or LFU) that
// persists across timeslots; a request is served locally on a cache
// hit (within service capacity) and by the origin otherwise, with the
// miss admitting the video into the cache. It quantifies what the
// paper's proactive push-and-balance design buys over letting edge
// caches fend for themselves.
//
// Within a slot the cache is evolved over the slot's requests first and
// requests are then served against the end-of-slot contents (the
// simulator models placement per slot); fetches for videos that were
// admitted and evicted again inside the slot are accounted through
// Assignment.ExtraReplicas. A hotspot without cache space has no cache:
// it places nothing, its requests go to the origin, and its misses
// admit (and fetch) nothing.
type Reactive struct {
	// NewCache builds each hotspot's cache; nil selects cache.NewLRU.
	NewCache cache.Constructor
	// Label names the eviction policy in reports; empty selects "lru".
	Label string

	world  *trace.World
	caches []cache.Cache // nil for a hotspot without cache space
	prev   core.PlacementRuns
}

var _ sim.Scheduler = (*Reactive)(nil)

// NewReactiveLRU returns the reactive baseline with LRU caches.
func NewReactiveLRU() *Reactive {
	return &Reactive{
		NewCache: func(c int) (cache.Cache, error) { return cache.NewLRU(c) },
		Label:    "lru",
	}
}

// NewReactiveLFU returns the reactive baseline with LFU caches.
func NewReactiveLFU() *Reactive {
	return &Reactive{
		NewCache: func(c int) (cache.Cache, error) { return cache.NewLFU(c) },
		Label:    "lfu",
	}
}

// Name implements sim.Scheduler.
func (p *Reactive) Name() string {
	label := p.Label
	if label == "" {
		label = "lru"
	}
	return fmt.Sprintf("Reactive(%s)", label)
}

// Schedule implements sim.Scheduler.
func (p *Reactive) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	if p.world != ctx.World {
		ctor := p.NewCache
		if ctor == nil {
			ctor = func(c int) (cache.Cache, error) { return cache.NewLRU(c) }
		}
		m := len(ctx.World.Hotspots)
		p.caches = make([]cache.Cache, m)
		for h := 0; h < m; h++ {
			capacity := ctx.World.Hotspots[h].CacheCapacity
			if capacity < 1 {
				continue
			}
			c, err := ctor(capacity)
			if err != nil {
				return nil, fmt.Errorf("scheme: building cache for hotspot %d: %w", h, err)
			}
			p.caches[h] = c
		}
		p.prev = core.PlacementRuns{Off: make([]int, m+1)}
		p.world = ctx.World
	}
	m := len(ctx.World.Hotspots)

	// Pass 1: evolve each hotspot's cache over its aggregated requests,
	// counting origin fetches (misses).
	var fetches int64
	for i := range ctx.Requests {
		c := p.caches[ctx.Nearest[i]]
		if c == nil {
			continue
		}
		if hit, _, _ := c.Access(int(ctx.Requests[i].Video)); !hit {
			fetches++
		}
	}

	// End-of-slot contents become the slot's placement. The fetch
	// accounting below compares physical contents slot over slot, so it
	// stays consistent even when degraded cache capacity hides part of
	// the cache from the reported placement.
	placement := core.PlacementRuns{Off: make([]int, 1, m+1)}
	var newlyPlaced int64
	for h, c := range p.caches {
		start := len(placement.IDs)
		if c != nil {
			for _, v := range c.Items() {
				placement.IDs = append(placement.IDs, int32(v))
			}
		}
		row := placement.IDs[start:]
		slices.Sort(row)
		newlyPlaced += countAbsent(row, p.prev.Row(h))
		placement.Off = append(placement.Off, len(placement.IDs))
	}

	// Under cache degradation the device has lost cache space: only an
	// effective-capacity-sized slice of the contents is usable (and
	// reported) this slot. The physical LRU state is untouched and
	// resurfaces when the fault clears.
	reported := placement
	if cache := ctx.CacheCapacity; cache != nil {
		reported = core.PlacementRuns{Off: make([]int, 1, m+1)}
		for h := 0; h < m; h++ {
			row := placement.Row(h)
			reported.AppendRow(row[:min(len(row), cache[h])])
		}
	}

	// Pass 2: serve against the final contents within capacity.
	capLeft := append([]int64(nil), ctx.EffectiveCapacity()...)
	targets := make([]int, len(ctx.Requests))
	for i, req := range ctx.Requests {
		h := ctx.Nearest[i]
		if capLeft[h] > 0 && reported.Contains(h, int(req.Video)) {
			targets[i] = h
			capLeft[h]--
		} else {
			targets[i] = sim.CDN
		}
	}

	// Fetches beyond the placement delta (admit-then-evict within the
	// slot) are reported separately; the simulator accounts the delta.
	extra := fetches - newlyPlaced
	if extra < 0 {
		return nil, fmt.Errorf("scheme: reactive accounting underflow (%d fetches, %d new placements)",
			fetches, newlyPlaced)
	}
	p.prev = placement
	return &sim.Assignment{Placement: reported, Target: targets, ExtraReplicas: extra}, nil
}

// countAbsent returns how many ids of the ascending run ids the
// ascending run prev lacks, in one merge walk.
func countAbsent(ids, prev []int32) (n int64) {
	i := 0
	for _, v := range ids {
		for i < len(prev) && prev[i] < v {
			i++
		}
		if i == len(prev) || prev[i] != v {
			n++
		}
	}
	return n
}
