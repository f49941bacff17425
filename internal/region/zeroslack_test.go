package region_test

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/obs/invariant"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// zeroSlackWorld builds a two-region world that drives the cross-move
// realisation through its zero-slack target path: region A is one
// overloaded hotspot, region B holds the slack split across two
// hotspots (b1, b2) plus one hotspot (b3) with no slack at all. The
// virtual redirect A→B exceeds b1's slack, so the realisation loop
// must exhaust b1, hit it again at slack 0, advance the target cursor
// (the previously untested `slack[tgt] <= 0` skip), and continue into
// b2 — never touching b3.
func zeroSlackWorld(t *testing.T, b2Cache int) (*trace.World, *sim.SlotContext) {
	t.Helper()
	world := &trace.World{
		Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: 12, MaxY: 6},
		Hotspots: []trace.Hotspot{
			{ID: 0, Location: geo.Point{X: 1, Y: 1}, ServiceCapacity: 2, CacheCapacity: 4},         // a0: overloaded
			{ID: 1, Location: geo.Point{X: 8, Y: 1}, ServiceCapacity: 4, CacheCapacity: 4},         // b1: slack 2
			{ID: 2, Location: geo.Point{X: 8.5, Y: 1}, ServiceCapacity: 2, CacheCapacity: b2Cache}, // b2: slack 2
			{ID: 3, Location: geo.Point{X: 9, Y: 1}, ServiceCapacity: 3, CacheCapacity: 4},         // b3: slack 0
		},
		NumVideos:     16,
		CDNDistanceKm: 14,
	}
	if err := world.Validate(); err != nil {
		t.Fatalf("hand-built world invalid: %v", err)
	}

	var requests []trace.Request
	id := 0
	add := func(h int, v trace.VideoID, n int) {
		for i := 0; i < n; i++ {
			requests = append(requests, trace.Request{
				ID:       id,
				User:     trace.UserID(id),
				Video:    v,
				Location: world.Hotspots[h].Location,
			})
			id++
		}
	}
	add(0, 7, 6) // a0: 6 units of video 7 against capacity 2 → surplus 4
	add(1, 3, 2) // b1: retained load 2 of capacity 4 → slack 2
	add(3, 4, 3) // b3: retained load 3 of capacity 3 → slack 0

	index, err := world.Index()
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	ctx, err := sim.BuildSlotContext(world, index, 0, requests, stats.SplitRand(1, "zeroslack-test"))
	if err != nil {
		t.Fatalf("BuildSlotContext: %v", err)
	}
	return world, ctx
}

// countTargets tallies how many requests each hotspot serves.
func countTargets(asg *sim.Assignment, m int) (perHotspot []int, cdn int) {
	perHotspot = make([]int, m)
	for _, tgt := range asg.Target {
		if tgt == sim.CDN {
			cdn++
			continue
		}
		perHotspot[tgt]++
	}
	return perHotspot, cdn
}

// TestCrossMoveZeroSlackTargets is the regression test for the
// cross-move queue under zero-slack targets: the realisation must skip
// exhausted and zero-slack hotspots instead of over-committing them,
// and the materialised assignment must stay feasible.
func TestCrossMoveZeroSlackTargets(t *testing.T) {
	world, ctx := zeroSlackWorld(t, 4)
	pol := scheme.NewHierarchical(5) // cells: {a0} and {b1,b2,b3}

	asg, err := pol.Schedule(ctx)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if _, err := invariant.CheckAssignment(ctx, asg); err != nil {
		t.Fatalf("assignment violates invariants: %v", err)
	}

	got, _ := countTargets(asg, len(world.Hotspots))
	// b1 (slack 2) must fill first, then the cursor must skip it at
	// slack 0 and spill into b2 — flow reaching b2 is only possible
	// through the zero-slack skip, since the cursor never advances on
	// the normal path.
	if got[2] == 0 {
		t.Error("no flow spilled into b2; the zero-slack target skip never ran")
	}
	if got[1] > 4 || got[2] > 2 {
		t.Errorf("targets over-committed: b1 served %d (cap 4), b2 served %d (cap 2)", got[1], got[2])
	}
	// b3 has zero slack and must receive no redirected flow on top of
	// its own retained load (3 requests of its own).
	if got[3] > 3 {
		t.Errorf("zero-slack hotspot b3 served %d requests, want at most its own 3", got[3])
	}
}

// TestCrossMoveCacheFullTargetDropped drives a cross move into a target
// whose cache cannot hold the video: the move must be dropped (the
// reserved inflow released) rather than served without placement.
func TestCrossMoveCacheFullTargetDropped(t *testing.T) {
	world, ctx := zeroSlackWorld(t, 0) // b2 has zero cache slots
	pol := scheme.NewHierarchical(5)

	asg, err := pol.Schedule(ctx)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if _, err := invariant.CheckAssignment(ctx, asg); err != nil {
		t.Fatalf("assignment violates invariants: %v", err)
	}

	got, _ := countTargets(asg, len(world.Hotspots))
	if got[2] != 0 {
		t.Errorf("cache-less b2 served %d redirected requests, want 0", got[2])
	}
	if asg.Placement.Len(2) != 0 {
		t.Errorf("cache-less b2 placed %d videos", asg.Placement.Len(2))
	}
	// b1 still absorbs its share.
	if got[1] == 0 {
		t.Error("no flow reached b1")
	}
}
