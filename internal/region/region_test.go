package region

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/trace"
)

func genWorld(t *testing.T, hotspots, videos, users, requests, regions int) (*trace.World, *trace.Trace) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.NumHotspots = hotspots
	cfg.NumVideos = videos
	cfg.NumUsers = users
	cfg.NumRequests = requests
	cfg.NumRegions = regions
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return world, tr
}

func TestGridPartition(t *testing.T) {
	world, _ := genWorld(t, 60, 2000, 3000, 3000, 6)
	p, err := GridPartition(world, 4.0)
	if err != nil {
		t.Fatalf("GridPartition: %v", err)
	}
	if err := p.Validate(len(world.Hotspots)); err != nil {
		t.Fatalf("partition invalid: %v", err)
	}
	if p.NumRegions() < 2 {
		t.Errorf("expected multiple regions over a 17x11 km world, got %d", p.NumRegions())
	}
	// Every hotspot within its region must be in the same grid cell —
	// check members sit within cell diagonal of the centroid.
	maxSpread := 4.0 * 1.5
	for k, members := range p.Regions {
		for _, h := range members {
			if d := world.Hotspots[h].Location.DistanceTo(p.Centroids[k]); d > maxSpread {
				t.Errorf("hotspot %d is %.1f km from its region centroid", h, d)
			}
		}
	}
}

func TestGridPartitionErrors(t *testing.T) {
	world, _ := genWorld(t, 10, 500, 500, 500, 3)
	if _, err := GridPartition(nil, 1); err == nil {
		t.Error("GridPartition(nil) succeeded")
	}
	if _, err := GridPartition(world, 0); err == nil {
		t.Error("GridPartition(cell=0) succeeded")
	}
}

func TestPartitionValidateCatchesCorruption(t *testing.T) {
	world, _ := genWorld(t, 20, 500, 500, 500, 3)
	p, err := GridPartition(world, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := p.Validate(len(world.Hotspots))
	if good != nil {
		t.Fatalf("valid partition rejected: %v", good)
	}
	p.OfHotspot[0] = p.OfHotspot[0] + 1000
	if err := p.Validate(len(world.Hotspots)); err == nil {
		t.Error("Validate accepted corrupted OfHotspot")
	}
}

func TestVirtualWorldAggregation(t *testing.T) {
	world, _ := genWorld(t, 40, 1000, 1000, 1000, 4)
	p, err := GridPartition(world, 5)
	if err != nil {
		t.Fatal(err)
	}
	virtual, err := VirtualWorld(world, p)
	if err != nil {
		t.Fatalf("VirtualWorld: %v", err)
	}
	if len(virtual.Hotspots) != p.NumRegions() {
		t.Fatalf("virtual world has %d hotspots, want %d regions", len(virtual.Hotspots), p.NumRegions())
	}
	var wantSvc, gotSvc int64
	for _, h := range world.Hotspots {
		wantSvc += h.ServiceCapacity
	}
	for _, h := range virtual.Hotspots {
		gotSvc += h.ServiceCapacity
	}
	if gotSvc != wantSvc {
		t.Errorf("virtual capacity %d, want sum %d", gotSvc, wantSvc)
	}
	if err := virtual.Validate(); err != nil {
		t.Errorf("virtual world invalid: %v", err)
	}
}

func TestSubWorld(t *testing.T) {
	world, _ := genWorld(t, 30, 800, 800, 800, 4)
	members := []int{5, 10, 20}
	sub, toGlobal, err := SubWorld(world, members)
	if err != nil {
		t.Fatalf("SubWorld: %v", err)
	}
	if len(sub.Hotspots) != 3 {
		t.Fatalf("sub world has %d hotspots, want 3", len(sub.Hotspots))
	}
	for i, h := range members {
		if toGlobal[i] != h {
			t.Errorf("toGlobal[%d] = %d, want %d", i, toGlobal[i], h)
		}
		if sub.Hotspots[i].Location != world.Hotspots[h].Location {
			t.Errorf("sub hotspot %d location mismatch", i)
		}
		if int(sub.Hotspots[i].ID) != i {
			t.Errorf("sub hotspot %d not reindexed: id %d", i, sub.Hotspots[i].ID)
		}
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("sub world invalid: %v", err)
	}
	if _, _, err := SubWorld(world, nil); err == nil {
		t.Error("SubWorld(empty) succeeded")
	}
	if _, _, err := SubWorld(world, []int{99}); err == nil {
		t.Error("SubWorld(out of range) succeeded")
	}
}

func TestPartitionWithClusteredHotspots(t *testing.T) {
	// Hotspots at two far-apart clusters must land in different regions.
	world := &trace.World{
		Bounds:        geo.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 4},
		NumVideos:     100,
		CDNDistanceKm: 20,
		Hotspots: []trace.Hotspot{
			{ID: 0, Location: geo.Point{X: 1, Y: 1}, ServiceCapacity: 5, CacheCapacity: 5},
			{ID: 1, Location: geo.Point{X: 1.5, Y: 1.2}, ServiceCapacity: 5, CacheCapacity: 5},
			{ID: 2, Location: geo.Point{X: 18, Y: 1}, ServiceCapacity: 5, CacheCapacity: 5},
		},
	}
	p, err := GridPartition(world, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.OfHotspot[0] != p.OfHotspot[1] {
		t.Error("nearby hotspots split across regions")
	}
	if p.OfHotspot[0] == p.OfHotspot[2] {
		t.Error("distant hotspots share a region")
	}
}
