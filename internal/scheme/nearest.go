// Package scheme implements the request-redirection policies compared
// in the paper's evaluation: the Nearest and (local) Random baselines,
// the RBCAer policy built on internal/core, and the LP-relaxation
// scheme used in the running-time comparison. All satisfy
// sim.Scheduler.
package scheme

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Nearest routes every request to its nearest hotspot; each hotspot
// independently caches its most locally popular videos up to its cache
// capacity (the paper's Nearest scheme).
type Nearest struct{}

var _ sim.Scheduler = Nearest{}

// Name implements sim.Scheduler.
func (Nearest) Name() string { return "Nearest" }

// Schedule implements sim.Scheduler.
func (Nearest) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	targets := make([]int, len(ctx.Requests))
	copy(targets, ctx.Nearest)
	return &sim.Assignment{Placement: topPlacement(ctx.Demand, ctx.EffectiveCacheCapacity()), Target: targets}, nil
}

// topPlacement places at each hotspot h the up-to-cache[h] videos its
// row of d ranks first (core.Demand.Top).
func topPlacement(d *core.Demand, cache []int) core.PlacementRuns {
	p := core.PlacementRuns{Off: make([]int, 1, len(cache)+1)}
	for h, k := range cache {
		p.IDs = d.Top(p.IDs, h, k)
		p.Off = append(p.Off, len(p.IDs))
	}
	return p
}
