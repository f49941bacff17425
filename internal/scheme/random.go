package scheme

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Random is the paper's local-random scheme: each hotspot caches the
// most popular videos of its radius-neighbourhood, and a request is
// routed uniformly at random to a hotspot within the radius that has
// the video cached and service capacity left, falling back to the CDN.
type Random struct {
	// RadiusKm is the routing/caching radius (the paper's 1.5 km).
	RadiusKm float64
}

var _ sim.Scheduler = Random{}

// Name implements sim.Scheduler.
func (r Random) Name() string { return fmt.Sprintf("Random(%.1fkm)", r.RadiusKm) }

// Schedule implements sim.Scheduler.
func (r Random) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	return routeInRadius(ctx, "Random", r.RadiusKm, func(rng *rand.Rand, holders []int, _ []int64) int {
		return holders[rng.Intn(len(holders))]
	})
}

// routeInRadius is the Random/PowerOfTwo slot: cache each hotspot's
// neighbourhood favourites (neighborhoodPlacement), then route each
// request among the in-radius holders of its video that have service
// capacity left. The candidate set is the radius-neighbourhood of the
// request's aggregation (nearest) hotspot, matching the paper's
// formulation where redirection happens between hotspots. pick chooses
// one of a non-empty holder list, drawing from rng; a request with no
// holder goes to the CDN without a draw.
func routeInRadius(ctx *sim.SlotContext, scheme string, radiusKm float64, pick func(rng *rand.Rand, holders []int, capLeft []int64) int) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	if radiusKm <= 0 {
		return nil, fmt.Errorf("scheme: %s radius must be positive, got %v", scheme, radiusKm)
	}
	placement, neighborsOf := neighborhoodPlacement(ctx, radiusKm)

	capLeft := append([]int64(nil), ctx.EffectiveCapacity()...)
	targets := make([]int, len(ctx.Requests))
	var holders []int
	for i, req := range ctx.Requests {
		holders = holders[:0]
		for _, nb := range neighborsOf[ctx.Nearest[i]] {
			if capLeft[nb] > 0 && placement.Contains(nb, int(req.Video)) {
				holders = append(holders, nb)
			}
		}
		if len(holders) == 0 {
			targets[i] = sim.CDN
			continue
		}
		h := pick(ctx.Rand, holders, capLeft)
		capLeft[h]--
		targets[i] = h
	}
	return &sim.Assignment{Placement: placement, Target: targets}, nil
}

// neighborhoodPlacement computes the Random/PowerOfTwo cache policy:
// each hotspot caches the most popular videos among the demand of
// hotspots within the radius — their rows summed into one demand row
// per hotspot — and returns the per-hotspot neighbour lists used for
// routing.
func neighborhoodPlacement(ctx *sim.SlotContext, radiusKm float64) (core.PlacementRuns, [][]int) {
	m := len(ctx.World.Hotspots)
	local := core.NewDemand(m)
	neighborsOf := make([][]int, m)
	for h := 0; h < m; h++ {
		for _, nb := range ctx.Index.Within(ctx.World.Hotspots[h].Location, radiusKm) {
			neighborsOf[h] = append(neighborsOf[h], nb.ID)
			ctx.Demand.Each(nb.ID, func(v trace.VideoID, n int64) { local.Add(trace.HotspotID(h), v, n) })
		}
	}
	local.Fold()
	return topPlacement(local, ctx.EffectiveCacheCapacity()), neighborsOf
}
