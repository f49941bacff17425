package core

import (
	"testing"

	"repro/internal/trace"
)

func TestReplicateAggregatesSharedVideo(t *testing.T) {
	// Two overloaded hotspots (0, 2) both overflowing with demand for
	// the SAME video, one under-utilised hotspot (1) between them.
	// Content aggregation should serve both through a single replica at
	// hotspot 1.
	w := lineWorld(3, 0.7, 10, 50)
	d := NewDemand(3)
	d.Add(0, 7, 14) // surplus 4
	d.Add(2, 7, 14) // surplus 4
	d.Add(1, 9, 2)  // slack 8

	plan := scheduleOK(t, w, DefaultParams(), d)
	if plan.Stats.MovedFlow != 8 {
		t.Fatalf("MovedFlow = %d, want 8", plan.Stats.MovedFlow)
	}
	if !plan.Placement.Contains(1, 7) {
		t.Fatal("video 7 not placed at the aggregation target")
	}
	// One replica of video 7 at hotspot 1 serves redirects from both
	// sources; sources keep their own replica for the remaining local
	// demand.
	var to1 int64
	for _, r := range plan.Redirects {
		if r.To != 1 || r.Video != 7 {
			t.Errorf("unexpected redirect %+v", r)
		}
		to1 += r.Count
	}
	if to1 != 8 {
		t.Errorf("redirected %d units of video 7, want 8", to1)
	}
}

func TestReplicateTargetCacheFullUnrealized(t *testing.T) {
	// The only target has zero cache, so the balancing flow cannot be
	// realised into redirects; the surplus must fall back to the CDN.
	w := lineWorld(2, 1.0, 10, 50)
	w.Hotspots[1].CacheCapacity = 0
	d := NewDemand(2)
	d.Add(0, 7, 15) // surplus 5
	d.Add(1, 9, 2)  // slack 8 but no cache

	plan := scheduleOK(t, w, DefaultParams(), d)
	if plan.Stats.UnrealizedFlow != plan.Stats.MovedFlow {
		t.Errorf("UnrealizedFlow = %d, want all of MovedFlow %d",
			plan.Stats.UnrealizedFlow, plan.Stats.MovedFlow)
	}
	if len(plan.Redirects) != 0 {
		t.Errorf("redirects = %v, want none", plan.Redirects)
	}
	if plan.OverflowToCDN[0] != 5 {
		t.Errorf("OverflowToCDN[0] = %d, want the whole surplus 5", plan.OverflowToCDN[0])
	}
	if plan.Placement.Len(1) != 0 {
		t.Errorf("placement at cache-less hotspot: %v", plan.Placement.Row(1))
	}
}

func TestReplicateLocalFillByDemand(t *testing.T) {
	// No balancing: placement is pure local fill, highest demand first,
	// bounded by cache capacity.
	w := lineWorld(1, 1.0, 100, 2)
	d := NewDemand(1)
	d.Add(0, 1, 10)
	d.Add(0, 2, 5)
	d.Add(0, 3, 1)

	plan := scheduleOK(t, w, DefaultParams(), d)
	if !plan.Placement.Contains(0, 1) || !plan.Placement.Contains(0, 2) {
		t.Errorf("placement = %v, want top-2 videos {1, 2}", plan.Placement.Row(0))
	}
	if plan.Placement.Contains(0, 3) {
		t.Error("cache overfilled with video 3")
	}
	if plan.Stats.Replicas != 2 {
		t.Errorf("Replicas = %d, want 2", plan.Stats.Replicas)
	}
}

func TestReplicateServeBudgetSkipsUnservableDemand(t *testing.T) {
	// Capacity 3 with demand for 10 distinct videos: replicating all 10
	// would waste pushes — the serviceable-demand budget (the paper's
	// B_peak role) must stop the fill early.
	w := lineWorld(1, 1.0, 3, 50)
	d := NewDemand(1)
	for v := trace.VideoID(0); v < 10; v++ {
		d.Add(0, v, 1)
	}
	plan := scheduleOK(t, w, DefaultParams(), d)
	if plan.Stats.Replicas > 3 {
		t.Errorf("Replicas = %d, want <= service capacity 3", plan.Stats.Replicas)
	}
}

func TestReplicateSourceKeepsResidualDemand(t *testing.T) {
	// Hotspot 0: 12 units of video 5 (surplus 2 moves away) plus 3 of
	// video 6. After redirecting 2 units of video 5, the source still
	// has local demand for both videos and should cache both.
	w := lineWorld(2, 1.0, 10, 50)
	d := NewDemand(2)
	d.Add(0, 5, 12)
	d.Add(0, 6, 3) // wait: totals 15 > 10, surplus 5
	d.Add(1, 9, 1)

	plan := scheduleOK(t, w, DefaultParams(), d)
	if !plan.Placement.Contains(0, 5) || !plan.Placement.Contains(0, 6) {
		t.Errorf("source placement = %v, want videos 5 and 6", plan.Placement.Row(0))
	}
}

func TestReplicateFullyMovedVideoNotCachedAtSource(t *testing.T) {
	// Video 5's demand at hotspot 0 equals the surplus, and it wins the
	// greedy eu tie against video 7 (equal eu, smaller id), so all of
	// it moves to hotspot 1. The source must not waste a replica on a
	// video whose entire demand was redirected away.
	w := lineWorld(2, 1.0, 10, 50)
	d := NewDemand(2)
	d.Add(0, 5, 4)  // the surplus: fully movable
	d.Add(0, 7, 10) // fills capacity exactly
	d.Add(1, 9, 2)  // slack 8

	plan := scheduleOK(t, w, DefaultParams(), d)
	var video5Moved int64
	for _, r := range plan.Redirects {
		if r.Video == 5 {
			video5Moved += r.Count
		}
	}
	if video5Moved != 4 {
		t.Fatalf("video 5 moved %d units, want 4", video5Moved)
	}
	if plan.Placement.Contains(0, 5) {
		t.Error("source cached video 5 although its whole demand was redirected")
	}
	if !plan.Placement.Contains(1, 5) {
		t.Error("target did not cache redirected video 5")
	}
}
