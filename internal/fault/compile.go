package fault

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Timeline is a scenario compiled against a concrete world and slot
// count: for every slot it answers which hotspots are offline (and
// why), what the effective service/cache capacities are, and how the
// scheduler's load reports are delayed or dropped. It is a pure
// function of (world, slots, seed, scenario), so consumers may query
// it from any number of goroutines (it is immutable after Compile) and
// in any slot order without perturbing determinism.
type Timeline struct {
	slots int
	m     int

	// causes[slot][h] is the outage cause for hotspot h at slot, or
	// CauseNone; a nil row means the whole fleet is online.
	causes [][]Cause
	// service[slot] is the effective per-hotspot service capacity; a
	// nil row means nominal.
	service [][]int64
	// cache[slot] is the effective per-hotspot cache capacity; a nil
	// row means nominal.
	cache [][]int
	// drops[slot][h] marks load reports lost in flight; nil = none.
	drops [][]bool

	lag int

	counts CauseCounts
}

// CauseCounts breaks a compiled timeline's injected faults down by
// family: how many (hotspot, slot) pairs each family touches over the
// whole run. The counts are fixed at Compile time — a pure function of
// (world, slots, seed, scenario) — so they are identical however the
// slots are later scheduled.
type CauseCounts struct {
	// ChurnSlots counts (hotspot, slot) pairs offline due to Markov
	// session churn (after regional outages claim their overlap).
	ChurnSlots int64
	// OutageSlots counts (hotspot, slot) pairs inside a regional outage.
	OutageSlots int64
	// DegradedSlots counts (hotspot, slot) pairs whose service or cache
	// capacity is scaled below nominal (each pair counted once even when
	// both resources degrade).
	DegradedSlots int64
	// DroppedReports counts (hotspot, slot) load reports lost in flight.
	DroppedReports int64
}

// Compile expands the scenario into a per-slot fault timeline. All
// randomness derives from seed via independent split streams, drawn in
// a fixed slot-major order, so equal inputs always yield equal
// timelines.
func Compile(world *trace.World, slots int, seed int64, sc *Scenario) (*Timeline, error) {
	if world == nil {
		return nil, fmt.Errorf("fault: nil world")
	}
	if slots <= 0 {
		return nil, fmt.Errorf("fault: non-positive slot count %d", slots)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	m := len(world.Hotspots)
	tl := &Timeline{slots: slots, m: m}
	if sc.Empty() {
		return tl, nil
	}

	tl.causes = make([][]Cause, slots)

	// Markov session churn: evolve every hotspot's chain slot by slot,
	// one draw per (slot, hotspot) regardless of state so the stream
	// never shifts when parameters change.
	if sc.Churn != nil && sc.Churn.FailPerSlot > 0 {
		rng := stats.SplitRand(seed, "fault/markov")
		offline := make([]bool, m)
		for t := 0; t < slots; t++ {
			for h := 0; h < m; h++ {
				r := rng.Float64()
				if offline[h] {
					if r < sc.Churn.RecoverPerSlot {
						offline[h] = false
					}
				} else if r < sc.Churn.FailPerSlot {
					offline[h] = true
				}
				if offline[h] {
					tl.setCause(t, h, CauseChurn)
				}
			}
		}
	}

	// Regional outages: deterministic geometry, no randomness.
	// CauseOutage overrides CauseChurn so correlated failures are
	// attributed to their correlated cause.
	for i := range sc.Outages {
		o := &sc.Outages[i]
		hit := hotspotsWithin(world, o.Center, o.RadiusKm)
		if len(hit) == 0 {
			continue
		}
		end := o.EndSlot
		if end > slots {
			end = slots
		}
		for t := o.StartSlot; t < end; t++ {
			for _, h := range hit {
				tl.setCause(t, h, CauseOutage)
			}
		}
	}

	// Capacity degradation: each window draws its affected set once
	// (one draw per hotspot), then scales capacities for its slots.
	for i := range sc.Degradations {
		d := &sc.Degradations[i]
		rng := stats.SplitRand(seed, fmt.Sprintf("fault/degrade/%d", i))
		affected := make([]bool, m)
		for h := 0; h < m; h++ {
			affected[h] = rng.Float64() < d.Fraction
		}
		end := d.EndSlot
		if end > slots {
			end = slots
		}
		for t := d.StartSlot; t < end; t++ {
			for h := 0; h < m; h++ {
				if !affected[h] {
					continue
				}
				if d.ServiceFactor < 1 {
					tl.serviceRow(t, world)
					tl.service[t][h] = scaleCapacity(world.Hotspots[h].ServiceCapacity, d.ServiceFactor)
				}
				if d.CacheFactor < 1 {
					tl.cacheRow(t, world)
					tl.cache[t][h] = int(scaleCapacity(int64(world.Hotspots[h].CacheCapacity), d.CacheFactor))
				}
			}
		}
	}

	// Stale/partial load reports.
	if sc.Staleness != nil {
		tl.lag = sc.Staleness.LagSlots
		if f := sc.Staleness.DropFraction; f > 0 {
			rng := stats.SplitRand(seed, "fault/drops")
			tl.drops = make([][]bool, slots)
			for t := 0; t < slots; t++ {
				row := make([]bool, m)
				any := false
				for h := 0; h < m; h++ {
					if rng.Float64() < f {
						row[h] = true
						any = true
					}
				}
				if any {
					tl.drops[t] = row
				}
			}
		}
	}
	tl.counts = countCauses(tl, world)
	return tl, nil
}

// countCauses tallies the compiled timeline's per-family fault counts.
func countCauses(tl *Timeline, world *trace.World) CauseCounts {
	var c CauseCounts
	for t := 0; t < tl.slots; t++ {
		if row := tl.Causes(t); row != nil {
			for _, cause := range row {
				switch cause {
				case CauseChurn:
					c.ChurnSlots++
				case CauseOutage:
					c.OutageSlots++
				}
			}
		}
		svc := tl.ServiceCapacities(t)
		cache := tl.CacheCapacities(t)
		if svc != nil || cache != nil {
			for h := range world.Hotspots {
				degraded := svc != nil && svc[h] < world.Hotspots[h].ServiceCapacity
				degraded = degraded || (cache != nil && cache[h] < world.Hotspots[h].CacheCapacity)
				if degraded {
					c.DegradedSlots++
				}
			}
		}
		if drops := tl.DroppedReports(t); drops != nil {
			for _, d := range drops {
				if d {
					c.DroppedReports++
				}
			}
		}
	}
	return c
}

// Publish exports the timeline's per-family fault counts as
// fault.cause.* counters, so scenario assertions and the debug server
// can target them. All four family counters are published — zero-valued
// when the family injects nothing — whenever a timeline exists, keeping
// the counter set (and the deterministic registry snapshot) independent
// of which families happen to fire. A nil registry is a no-op.
func (tl *Timeline) Publish(reg *obs.Registry) {
	if tl == nil || reg == nil {
		return
	}
	reg.Counter("fault.cause.churn").Add(tl.counts.ChurnSlots)
	reg.Counter("fault.cause.outage").Add(tl.counts.OutageSlots)
	reg.Counter("fault.cause.degradation").Add(tl.counts.DegradedSlots)
	reg.Counter("fault.cause.stale_drops").Add(tl.counts.DroppedReports)
}

// setCause records an outage cause, letting CauseOutage override
// CauseChurn (the reverse never downgrades).
func (tl *Timeline) setCause(slot, h int, c Cause) {
	if tl.causes[slot] == nil {
		tl.causes[slot] = make([]Cause, tl.m)
	}
	if tl.causes[slot][h] == CauseOutage {
		return
	}
	tl.causes[slot][h] = c
}

// serviceRow lazily materialises the slot's effective service row from
// the nominal capacities.
func (tl *Timeline) serviceRow(slot int, world *trace.World) {
	if tl.service == nil {
		tl.service = make([][]int64, tl.slots)
	}
	if tl.service[slot] == nil {
		tl.service[slot] = world.ServiceCapacities()
	}
}

// cacheRow lazily materialises the slot's effective cache row.
func (tl *Timeline) cacheRow(slot int, world *trace.World) {
	if tl.cache == nil {
		tl.cache = make([][]int, tl.slots)
	}
	if tl.cache[slot] == nil {
		tl.cache[slot] = world.CacheCapacities()
	}
}

// Causes returns the slot's per-hotspot outage causes, or nil when the
// whole fleet is online. The returned slice is shared; do not mutate.
func (tl *Timeline) Causes(slot int) []Cause {
	if tl.causes == nil || slot < 0 || slot >= tl.slots {
		return nil
	}
	return tl.causes[slot]
}

// ServiceCapacities returns the slot's effective per-hotspot service
// capacities, or nil when nominal. Shared; do not mutate.
func (tl *Timeline) ServiceCapacities(slot int) []int64 {
	if tl.service == nil || slot < 0 || slot >= tl.slots {
		return nil
	}
	return tl.service[slot]
}

// CacheCapacities returns the slot's effective per-hotspot cache
// capacities, or nil when nominal. Shared; do not mutate.
func (tl *Timeline) CacheCapacities(slot int) []int {
	if tl.cache == nil || slot < 0 || slot >= tl.slots {
		return nil
	}
	return tl.cache[slot]
}

// ReportSlot returns the slot whose requests the scheduler's load
// report for slot actually describes (slot minus the report lag,
// clamped to 0).
func (tl *Timeline) ReportSlot(slot int) int {
	s := slot - tl.lag
	if s < 0 {
		s = 0
	}
	return s
}

// DroppedReports returns the slot's lost-report mask, or nil when every
// report arrived. Shared; do not mutate.
func (tl *Timeline) DroppedReports(slot int) []bool {
	if tl.drops == nil || slot < 0 || slot >= tl.slots {
		return nil
	}
	return tl.drops[slot]
}

// Stale reports whether the scheduler's demand view ever differs from
// the true demand (report lag or dropped reports).
func (tl *Timeline) Stale() bool { return tl.lag > 0 || tl.drops != nil }

// InjectFlashCrowds applies the scenario's flash crowds to the trace:
// within each crowd's window the TopVideos most-requested videos (ties
// broken by video id) have every request repeated Multiplier times,
// duplicates adjacent to the original so per-slot order stays
// deterministic. It returns the (possibly new) trace and the number of
// injected requests; a scenario without flash crowds returns the input
// trace untouched.
func InjectFlashCrowds(tr *trace.Trace, sc *Scenario) (*trace.Trace, int64, error) {
	if sc == nil || len(sc.FlashCrowds) == 0 {
		return tr, 0, nil
	}
	if err := sc.Validate(); err != nil {
		return nil, 0, err
	}
	var injected int64
	cur := tr
	for i := range sc.FlashCrowds {
		fc := &sc.FlashCrowds[i]
		if fc.Multiplier <= 1 || fc.TopVideos == 0 {
			continue
		}
		spiked := hottestVideos(cur, fc)
		if len(spiked) == 0 {
			continue
		}
		out := make([]trace.Request, 0, len(cur.Requests))
		nextID := maxRequestID(cur) + 1
		for _, req := range cur.Requests {
			out = append(out, req)
			if !windowContains(fc.StartSlot, fc.EndSlot, req.Slot) {
				continue
			}
			if _, hot := spiked[req.Video]; !hot {
				continue
			}
			for k := 1; k < fc.Multiplier; k++ {
				dup := req
				dup.ID = nextID
				nextID++
				out = append(out, dup)
				injected++
			}
		}
		cur = &trace.Trace{Slots: cur.Slots, Requests: out}
	}
	return cur, injected, nil
}

// hottestVideos returns the crowd window's TopVideos most-requested
// videos as a set.
func hottestVideos(tr *trace.Trace, fc *FlashCrowd) map[trace.VideoID]struct{} {
	counts := make(map[trace.VideoID]int64)
	for _, req := range tr.Requests {
		if windowContains(fc.StartSlot, fc.EndSlot, req.Slot) {
			counts[req.Video]++
		}
	}
	if len(counts) == 0 {
		return nil
	}
	type vc struct {
		v trace.VideoID
		n int64
	}
	ranked := make([]vc, 0, len(counts))
	for v, n := range counts {
		ranked = append(ranked, vc{v, n})
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].n != ranked[b].n {
			return ranked[a].n > ranked[b].n
		}
		return ranked[a].v < ranked[b].v
	})
	if len(ranked) > fc.TopVideos {
		ranked = ranked[:fc.TopVideos]
	}
	out := make(map[trace.VideoID]struct{}, len(ranked))
	for _, e := range ranked {
		out[e.v] = struct{}{}
	}
	return out
}

// maxRequestID returns the largest request id in the trace (or -1).
func maxRequestID(tr *trace.Trace) int {
	maxID := -1
	for _, req := range tr.Requests {
		if req.ID > maxID {
			maxID = req.ID
		}
	}
	return maxID
}
