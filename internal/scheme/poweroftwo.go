package scheme

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
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
	return routeInRadius(ctx, "PowerOfTwo", p.RadiusKm, pickLessLoadedOfTwo)
}

// pickLessLoadedOfTwo returns a lone holder without a draw; otherwise
// it samples two holders (with replacement) and keeps the one with more
// remaining capacity, the first on a tie.
func pickLessLoadedOfTwo(rng *rand.Rand, holders []int, capLeft []int64) int {
	if len(holders) == 1 {
		return holders[0]
	}
	a := holders[rng.Intn(len(holders))]
	b := holders[rng.Intn(len(holders))]
	if capLeft[b] > capLeft[a] {
		return b
	}
	return a
}
