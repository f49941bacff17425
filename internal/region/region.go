// Package region partitions a deployment into geographic regions and
// derives the two worlds a partitioned round is solved on: the virtual
// world (each region's hotspots aggregated into one virtual hotspot)
// and the sub-world (one region as a world of its own). It is the
// geometry behind the cross-region extension the paper proposes via
// its prior work ([28], Sec. VI): internal/shard runs one RBCAer round
// per region on the sub-worlds, and scheme.NewHierarchical first runs
// RBCAer *across* regions on the virtual world.
//
// The payoff is scalability: RBCAer's clustering and flow steps are
// superlinear in the hotspot count, so a city-scale deployment (the
// measurement study's 5,000 hotspots) is ~K region-local problems plus
// at most one K-region problem.
package region

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/trace"
)

// Partition groups a world's hotspots into disjoint regions.
type Partition struct {
	// Regions[k] lists the hotspot indexes of region k (ascending).
	Regions [][]int
	// OfHotspot[h] is the region index of hotspot h.
	OfHotspot []int
	// Centroids[k] is the mean location of region k's hotspots.
	Centroids []geo.Point
}

// NumRegions returns the region count.
func (p *Partition) NumRegions() int { return len(p.Regions) }

// Validate checks internal consistency against a hotspot count.
func (p *Partition) Validate(numHotspots int) error {
	if len(p.OfHotspot) != numHotspots {
		return fmt.Errorf("region: partition covers %d hotspots, want %d", len(p.OfHotspot), numHotspots)
	}
	if len(p.Centroids) != len(p.Regions) {
		return fmt.Errorf("region: %d centroids for %d regions", len(p.Centroids), len(p.Regions))
	}
	seen := make([]bool, numHotspots)
	for k, members := range p.Regions {
		if len(members) == 0 {
			return fmt.Errorf("region: region %d is empty", k)
		}
		for _, h := range members {
			if h < 0 || h >= numHotspots {
				return fmt.Errorf("region: hotspot %d out of range", h)
			}
			if seen[h] {
				return fmt.Errorf("region: hotspot %d in two regions", h)
			}
			seen[h] = true
			if p.OfHotspot[h] != k {
				return fmt.Errorf("region: OfHotspot[%d] = %d, want %d", h, p.OfHotspot[h], k)
			}
		}
	}
	for h, ok := range seen {
		if !ok {
			return fmt.Errorf("region: hotspot %d unassigned", h)
		}
	}
	return nil
}

// GridPartition divides the world's bounds into cellKm x cellKm cells
// and groups hotspots by cell, dropping empty cells. It is the
// partitioning used by the paper's region-based prior work (Wi-Fi
// content hotspots grouped by area).
func GridPartition(world *trace.World, cellKm float64) (*Partition, error) {
	if world == nil {
		return nil, fmt.Errorf("region: nil world")
	}
	if cellKm <= 0 {
		return nil, fmt.Errorf("region: non-positive cell size %v", cellKm)
	}
	cols := int(math.Ceil(world.Bounds.Width() / cellKm))
	if cols < 1 {
		cols = 1
	}
	rows := int(math.Ceil(world.Bounds.Height() / cellKm))
	if rows < 1 {
		rows = 1
	}

	cellOf := func(pt geo.Point) int {
		cx := int((pt.X - world.Bounds.MinX) / cellKm)
		cy := int((pt.Y - world.Bounds.MinY) / cellKm)
		if cx < 0 {
			cx = 0
		}
		if cx >= cols {
			cx = cols - 1
		}
		if cy < 0 {
			cy = 0
		}
		if cy >= rows {
			cy = rows - 1
		}
		return cy*cols + cx
	}

	byCell := make(map[int][]int)
	for h, hs := range world.Hotspots {
		c := cellOf(hs.Location)
		byCell[c] = append(byCell[c], h)
	}

	p := &Partition{OfHotspot: make([]int, len(world.Hotspots))}
	// Deterministic region order: scan cells in index order.
	for c := 0; c < cols*rows; c++ {
		members, ok := byCell[c]
		if !ok {
			continue
		}
		k := len(p.Regions)
		var cx, cy float64
		for _, h := range members {
			p.OfHotspot[h] = k
			cx += world.Hotspots[h].Location.X
			cy += world.Hotspots[h].Location.Y
		}
		n := float64(len(members))
		p.Regions = append(p.Regions, members)
		p.Centroids = append(p.Centroids, geo.Point{X: cx / n, Y: cy / n})
	}
	if len(p.Regions) == 0 {
		return nil, fmt.Errorf("region: no hotspots to partition")
	}
	return p, nil
}

// VirtualWorld aggregates each region into one virtual hotspot located
// at the region centroid, with summed service and cache capacity. The
// returned world shares the original's bounds, catalogue, and CDN
// distance.
func VirtualWorld(world *trace.World, p *Partition) (*trace.World, error) {
	if err := p.Validate(len(world.Hotspots)); err != nil {
		return nil, err
	}
	virtual := &trace.World{
		Bounds:        world.Bounds,
		NumVideos:     world.NumVideos,
		CDNDistanceKm: world.CDNDistanceKm,
		Hotspots:      make([]trace.Hotspot, p.NumRegions()),
	}
	for k, members := range p.Regions {
		var svc int64
		var cache int
		for _, h := range members {
			svc += world.Hotspots[h].ServiceCapacity
			cache += world.Hotspots[h].CacheCapacity
		}
		virtual.Hotspots[k] = trace.Hotspot{
			ID:              trace.HotspotID(k),
			Location:        p.Centroids[k],
			ServiceCapacity: svc,
			CacheCapacity:   cache,
		}
	}
	return virtual, nil
}

// SubWorld restricts the world to one region's hotspots, reindexing
// them densely. toLocal maps global hotspot index -> local index;
// toGlobal is the inverse (local -> global).
func SubWorld(world *trace.World, members []int) (sub *trace.World, toGlobal []int, err error) {
	if len(members) == 0 {
		return nil, nil, fmt.Errorf("region: empty region")
	}
	sub = &trace.World{
		Bounds:        world.Bounds,
		NumVideos:     world.NumVideos,
		CDNDistanceKm: world.CDNDistanceKm,
		Hotspots:      make([]trace.Hotspot, len(members)),
	}
	toGlobal = make([]int, len(members))
	for i, h := range members {
		if h < 0 || h >= len(world.Hotspots) {
			return nil, nil, fmt.Errorf("region: hotspot %d out of range", h)
		}
		hs := world.Hotspots[h]
		hs.ID = trace.HotspotID(i)
		sub.Hotspots[i] = hs
		toGlobal[i] = h
	}
	return sub, toGlobal, nil
}
