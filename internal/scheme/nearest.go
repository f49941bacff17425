// Package scheme implements the request-redirection policies compared
// in the paper's evaluation: the Nearest and (local) Random baselines,
// the RBCAer policy built on internal/core, and the LP-relaxation
// scheme used in the running-time comparison. All satisfy
// sim.Scheduler.
package scheme

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/similarity"
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
	m := len(ctx.World.Hotspots)
	cache := ctx.EffectiveCacheCapacity()
	placement := make([]similarity.Set, m)
	for h := 0; h < m; h++ {
		placement[h] = topLocal(ctx.Demand.VideoCounts(h), cache[h])
	}
	targets := make([]int, len(ctx.Requests))
	copy(targets, ctx.Nearest)
	return &sim.Assignment{Placement: core.PlacementOf(placement), Target: targets}, nil
}

// topLocal returns the up-to-limit most demanded videos.
func topLocal(counts map[int]int64, limit int) similarity.Set {
	if limit <= 0 || len(counts) == 0 {
		return similarity.Set{}
	}
	ranked := similarity.RankedIDs(counts)
	if len(ranked) > limit {
		ranked = ranked[:limit]
	}
	return similarity.NewSet(ranked...)
}

// videoCount pairs a video id with a demand count.
type videoCount struct {
	id int
	n  int64
}

// topLocalPairs is topLocal over a pair slice, avoiding map overhead on
// hot paths. The input slice is reordered.
func topLocalPairs(pairs []videoCount, limit int) similarity.Set {
	if limit <= 0 || len(pairs) == 0 {
		return similarity.Set{}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].n != pairs[b].n {
			return pairs[a].n > pairs[b].n
		}
		return pairs[a].id < pairs[b].id
	})
	if len(pairs) > limit {
		pairs = pairs[:limit]
	}
	out := make(similarity.Set, len(pairs))
	for _, p := range pairs {
		out.Add(p.id)
	}
	return out
}
