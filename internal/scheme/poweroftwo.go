package scheme

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/similarity"
	"repro/internal/trace"
)

// PowerOfTwo is a load-balancing baseline from the DHT line of related
// work (Xia et al., the paper's [20]): caching is identical to the
// Random scheme (each hotspot caches its radius-neighbourhood's most
// popular videos), but each request samples two random in-radius
// holders and picks the one with more remaining service capacity —
// the classic "power of two choices" that exponentially improves load
// balance over a single random choice.
type PowerOfTwo struct {
	// RadiusKm is the routing/caching radius (1.5 km by convention).
	RadiusKm float64
}

var _ sim.Scheduler = PowerOfTwo{}

// Name implements sim.Scheduler.
func (p PowerOfTwo) Name() string { return fmt.Sprintf("PowerOfTwo(%.1fkm)", p.RadiusKm) }

// Schedule implements sim.Scheduler.
func (p PowerOfTwo) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	if p.RadiusKm <= 0 {
		return nil, fmt.Errorf("scheme: PowerOfTwo radius must be positive, got %v", p.RadiusKm)
	}
	placement, neighborsOf := neighborhoodPlacement(ctx, p.RadiusKm)

	capLeft := append([]int64(nil), ctx.EffectiveCapacity()...)
	targets := make([]int, len(ctx.Requests))
	var holders []int
	for i, req := range ctx.Requests {
		holders = holders[:0]
		for _, nb := range neighborsOf[ctx.Nearest[i]] {
			if capLeft[nb] > 0 && placement[nb].Contains(int(req.Video)) {
				holders = append(holders, nb)
			}
		}
		switch len(holders) {
		case 0:
			targets[i] = sim.CDN
			continue
		case 1:
			targets[i] = holders[0]
		default:
			a := holders[ctx.Rand.Intn(len(holders))]
			b := holders[ctx.Rand.Intn(len(holders))]
			// Pick the less-loaded of the two samples.
			if capLeft[b] > capLeft[a] {
				a = b
			}
			targets[i] = a
		}
		capLeft[targets[i]]--
	}
	return &sim.Assignment{Placement: placement, Target: targets}, nil
}

// neighborhoodPlacement computes the Random/PowerOfTwo cache policy:
// each hotspot caches the most popular videos among the demand of
// hotspots within the radius, and returns the per-hotspot neighbour
// lists used for routing.
func neighborhoodPlacement(ctx *sim.SlotContext, radiusKm float64) ([]similarity.Set, [][]int) {
	m := len(ctx.World.Hotspots)
	cache := ctx.EffectiveCacheCapacity()
	placement := make([]similarity.Set, m)
	neighborsOf := make([][]int, m)
	buf := make([]int64, ctx.World.NumVideos)
	touched := make([]int, 0, 1024)
	for h := 0; h < m; h++ {
		nbrs := ctx.Index.Within(ctx.World.Hotspots[h].Location, radiusKm)
		touched = touched[:0]
		for _, nb := range nbrs {
			neighborsOf[h] = append(neighborsOf[h], nb.ID)
			ctx.Demand.Each(nb.ID, func(v trace.VideoID, n int64) {
				if buf[v] == 0 {
					touched = append(touched, int(v))
				}
				buf[v] += n
			})
		}
		pairs := make([]videoCount, len(touched))
		for i, v := range touched {
			pairs[i] = videoCount{id: v, n: buf[v]}
			buf[v] = 0
		}
		placement[h] = topLocalPairs(pairs, cache[h])
	}
	return placement, neighborsOf
}
